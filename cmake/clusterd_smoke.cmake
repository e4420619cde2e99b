# Command-line smoke test of sssj_clusterd and sssj_workerd (registered
# as the `clusterd-smoke` ctest entry). Every call below must exit with
# status 2 exactly, so a crash or an abort does not pass for a rejection,
# and must exit before the daemon forks a worker or opens its socket:
#   1. --checkpoint-interval=64 and --spill-dir=DIR are unknown flags
#      (both options are gone: no session pulls a checkpoint, and the
#      fleet's workers run without a memory budget, so none spills);
#   2. --workers=abc and --workers=2x are not integers, and --workers=0
#      is not positive;
#   3. sssj_workerd --memory-budget-bytes=abc and =2x are not integers,
#      and =-1 is negative.
# None of these calls leaves the socket file behind.
#
#   cmake -DSSSJ_CLUSTERD=<path> -DSSSJ_WORKERD=<path>
#         -DWORK_DIR=<scratch dir> -P clusterd_smoke.cmake
foreach(var SSSJ_CLUSTERD SSSJ_WORKERD WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "clusterd_smoke.cmake: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(socket "${WORK_DIR}/clusterd.sock")

function(expect_rejected daemon expected_err)
  # A daemon that accepted the flag would serve until killed.
  execute_process(COMMAND "${daemon}" ${ARGN}
                  TIMEOUT 30
                  RESULT_VARIABLE rc
                  OUTPUT_QUIET
                  ERROR_VARIABLE err)
  if(NOT rc STREQUAL "2")
    message(FATAL_ERROR "${ARGN}: expected exit 2, got '${rc}':\n${err}")
  endif()
  if(NOT err MATCHES "${expected_err}")
    message(FATAL_ERROR "${ARGN}: stderr does not match "
                        "'${expected_err}':\n${err}")
  endif()
  if(EXISTS "${socket}")
    message(FATAL_ERROR "${ARGN}: the daemon opened its socket")
  endif()
  message(STATUS "rejected (exit 2): ${err}")
endfunction()

expect_rejected("${SSSJ_CLUSTERD}" "unknown flag: --checkpoint-interval=64"
                --checkpoint-interval=64 "--socket=${socket}")
expect_rejected("${SSSJ_CLUSTERD}" "unknown flag: --spill-dir="
                "--spill-dir=${WORK_DIR}" "--socket=${socket}")
foreach(bad abc 2x 0)
  expect_rejected("${SSSJ_CLUSTERD}"
                  "--workers must be a positive integer; got '${bad}'"
                  "--workers=${bad}" "--socket=${socket}")
endforeach()
foreach(bad abc 2x -1)
  expect_rejected("${SSSJ_WORKERD}"
                  "--memory-budget-bytes must be an integer >= 0; got '${bad}'"
                  "--memory-budget-bytes=${bad}" "--socket=${socket}")
endforeach()
