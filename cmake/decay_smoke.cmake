# Smoke test of the two general-decay programs (registered as the
# `decay-smoke` ctest entry):
#   1. windowed_join and bench_ablation_decay run at a small size, exit 0
#      and print their table headers;
#   2. every out-of-range or unknown flag exits with status 2 exactly, so
#      a crash or an abort does not pass for a rejection.
#
#   cmake -DWINDOWED_JOIN=<path> -DABLATION_DECAY=<path>
#         -P decay_smoke.cmake
foreach(var WINDOWED_JOIN ABLATION_DECAY)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "decay_smoke.cmake: -D${var}=... is required")
  endif()
endforeach()

function(expect_table name header_regex)
  execute_process(COMMAND ${ARGN}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "${name} failed (${rc}):\n${out}${err}")
  endif()
  if(NOT out MATCHES "${header_regex}")
    message(FATAL_ERROR "${name} printed no table header:\n${out}")
  endif()
  message(STATUS "${name}: ok")
endfunction()

function(expect_rejected)
  execute_process(COMMAND ${ARGN}
                  RESULT_VARIABLE rc
                  OUTPUT_QUIET
                  ERROR_VARIABLE err)
  if(NOT rc STREQUAL "2")
    message(FATAL_ERROR "${ARGN}: expected exit 2, got '${rc}':\n${err}")
  endif()
  message(STATUS "rejected (exit 2): ${err}")
endfunction()

expect_table(windowed_join "decay +pairs +entries +full_dots"
             "${WINDOWED_JOIN}" --posts=300)
expect_table(bench_ablation_decay
             "tau +decay +pairs +entries +full_dots +time\\(s\\)"
             "${ABLATION_DECAY}" --scale=0.05 --tau-list=10,100)

foreach(bad --window=nan --window=-5 --theta=2 --theta=0 --posts=-3
            --windw=10)
  expect_rejected("${WINDOWED_JOIN}" ${bad})
endforeach()
foreach(bad --theta=0 --tau-list=-10 --tau-list=nan --tau_list=10)
  expect_rejected("${ABLATION_DECAY}" ${bad})
endforeach()
