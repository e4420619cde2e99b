# Command-line smoke test of sssj_clusterd (registered as the
# `clusterd-smoke` ctest entry). Every call below must exit with status 2
# exactly, so a crash or an abort does not pass for a rejection, and
# must exit before the daemon forks a worker or opens its socket:
#   1. --checkpoint-interval=64 is an unknown flag (the option is gone:
#      no session pulls a checkpoint except on request);
#   2. --workers=abc and --workers=2x are not integers, and --workers=0
#      is not positive.
# None of these calls leaves the socket file behind.
#
#   cmake -DSSSJ_CLUSTERD=<path> -DWORK_DIR=<scratch dir>
#         -P clusterd_smoke.cmake
foreach(var SSSJ_CLUSTERD WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "clusterd_smoke.cmake: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(socket "${WORK_DIR}/clusterd.sock")

function(expect_rejected expected_err)
  execute_process(COMMAND "${SSSJ_CLUSTERD}" ${ARGN}
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

expect_rejected("unknown flag: --checkpoint-interval=64"
                --checkpoint-interval=64 "--socket=${socket}")
foreach(bad abc 2x 0)
  expect_rejected("--workers must be a positive integer; got '${bad}'"
                  "--workers=${bad}" "--socket=${socket}")
endforeach()
