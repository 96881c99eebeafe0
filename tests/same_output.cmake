# Runs a command twice, once as given and once with VARIANT appended, and
# fails unless both runs succeed and produce byte-identical output: stdout
# by default, or the file each run writes through OUTPUT_FLAG <path>.
#
#   cmake -DCOMMAND="<exe>;<args>" -DVARIANT="--threads;4" \
#         [-DOUTPUT_FLAG=--details-json] -DWORK_DIR=<dir> -P same_output.cmake
foreach(var COMMAND VARIANT WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "same_output.cmake: ${var} is not set")
  endif()
endforeach()
file(MAKE_DIRECTORY "${WORK_DIR}")

function(run_once tag extra out_var)
  set(command ${COMMAND} ${extra})
  if(OUTPUT_FLAG)
    list(APPEND command ${OUTPUT_FLAG} "${WORK_DIR}/${tag}.out")
  endif()
  execute_process(COMMAND ${command}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE stdout
                  ERROR_VARIABLE stderr)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${tag} run failed (rc=${rc}): ${command}\n${stderr}")
  endif()
  if(OUTPUT_FLAG)
    file(READ "${WORK_DIR}/${tag}.out" stdout)
  endif()
  set(${out_var} "${stdout}" PARENT_SCOPE)
endfunction()

run_once(base "" base_output)
run_once(variant "${VARIANT}" variant_output)
if(base_output STREQUAL "")
  message(FATAL_ERROR "base run produced no output")
endif()
if(NOT base_output STREQUAL variant_output)
  file(WRITE "${WORK_DIR}/base.txt" "${base_output}")
  file(WRITE "${WORK_DIR}/variant.txt" "${variant_output}")
  message(FATAL_ERROR "output differs with ${VARIANT}: see ${WORK_DIR}")
endif()
