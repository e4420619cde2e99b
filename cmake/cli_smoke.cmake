# End-to-end smoke test of the sssj_cli path through both stream readers
# (registered as the `cli-smoke` ctest entry):
#   1. make_dataset writes a small RCV1-like text stream; text2bin
#      converts it to the binary format;
#   2. sssj_cli joins each file with --output; both pair files must be
#      non-empty and byte-identical;
#   3. sssj_cli on a directory must fail (a read error is not an empty
#      stream).
#
#   cmake -DSSSJ_CLI=<path> -DMAKE_DATASET=<path> -DTEXT2BIN=<path>
#         -DWORK_DIR=<scratch dir> -P cli_smoke.cmake
foreach(var SSSJ_CLI MAKE_DATASET TEXT2BIN WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_smoke.cmake: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(text "${WORK_DIR}/stream.txt")
set(bin "${WORK_DIR}/stream.bin")

function(run_step name)
  execute_process(COMMAND ${ARGN}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${name} failed (${rc}):\n${out}${err}")
  endif()
  message(STATUS "${name}: ${err}")
endfunction()

run_step(make_dataset "${MAKE_DATASET}" --profile=RCV1 --scale=0.4
         "--out=${text}")
run_step(text2bin "${TEXT2BIN}" "${text}" "${bin}")
foreach(format text bin)
  if(format STREQUAL "text")
    set(input "${text}")
  else()
    set(input "${bin}")
  endif()
  run_step("sssj_cli ${format}" "${SSSJ_CLI}" "--input=${input}"
           --theta=0.6 --lambda=0.01 "--output=${WORK_DIR}/pairs.${format}"
           --quiet)
  file(SIZE "${WORK_DIR}/pairs.${format}" size)
  if(size EQUAL 0)
    message(FATAL_ERROR "sssj_cli wrote no pairs for the ${format} input")
  endif()
endforeach()

execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${WORK_DIR}/pairs.text" "${WORK_DIR}/pairs.bin"
                RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
  message(FATAL_ERROR "pairs from the text and binary inputs differ")
endif()

execute_process(COMMAND "${SSSJ_CLI}" "--input=${WORK_DIR}" --quiet
                RESULT_VARIABLE rc
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "sssj_cli --input=<a directory> exited 0:\n${err}")
endif()
message(STATUS "sssj_cli on a directory (exit ${rc}): ${err}")
