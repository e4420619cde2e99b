# Seed-corpus freshness gate (registered as the `seed-corpus-fresh`
# ctest entry): runs make_seed_corpus into an empty scratch root and
# fails if any file it writes differs from the committed copy under
# fuzz/corpus/, byte for byte. The generated seeds are the writers' own
# output (binary streams, SSSJENG3 checkpoints, wire payloads and
# frames), so a change to any of those formats fails here until the
# corpus is regenerated and committed with it.
#
#   cmake -DMAKE_SEED_CORPUS=<path> -DCORPUS_DIR=<repo>/fuzz/corpus
#         -DWORK_DIR=<scratch dir> -P seed_corpus_fresh.cmake
foreach(var MAKE_SEED_CORPUS CORPUS_DIR WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "seed_corpus_fresh.cmake: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
foreach(dir fuzz_binary_stream fuzz_checkpoint fuzz_wire)
  file(MAKE_DIRECTORY "${WORK_DIR}/${dir}")
endforeach()

execute_process(COMMAND "${MAKE_SEED_CORPUS}" "${WORK_DIR}"
                TIMEOUT 60
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "make_seed_corpus exited '${rc}':\n${out}${err}")
endif()

file(GLOB_RECURSE generated RELATIVE "${WORK_DIR}" "${WORK_DIR}/*")
list(LENGTH generated count)
if(count EQUAL 0)
  message(FATAL_ERROR "make_seed_corpus wrote no file under ${WORK_DIR}")
endif()
set(stale "")
foreach(file ${generated})
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                          "${WORK_DIR}/${file}" "${CORPUS_DIR}/${file}"
                  RESULT_VARIABLE differs
                  OUTPUT_QUIET ERROR_QUIET)
  if(NOT differs STREQUAL "0")
    list(APPEND stale "${file}")
  endif()
endforeach()
if(stale)
  string(REPLACE ";" "\n  " stale "${stale}")
  message(FATAL_ERROR
          "these generated seeds differ from (or are missing in) "
          "${CORPUS_DIR}:\n  ${stale}\n"
          "Regenerate with `make_seed_corpus <repo>/fuzz/corpus` and commit "
          "the diff with the format change.")
endif()
message(STATUS "${count} generated seeds match ${CORPUS_DIR}")
