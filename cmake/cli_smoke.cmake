# End-to-end smoke test of the sssj_cli path through both stream readers
# (registered as the `cli-smoke` ctest entry):
#   1. make_dataset writes a small RCV1-like text stream; text2bin
#      converts it to the binary format;
#   2. sssj_cli joins each file with --output; both pair files must be
#      non-empty and byte-identical;
#   3. async ingestion: --async runs must write the inline run's pair
#      file byte for byte, for STR-L2 and MB through a 3-item queue with
#      2-item epochs, and for --submit=timeout;
#   3b. threads: STR-L2 at --threads=2 must write the default run's pair
#      file byte for byte and print a note naming num_threads on stderr
#      (every STR scheme runs one sequential scan), and so must the
#      budgeted run --threads=4 --memory-budget=100000000, which goes
#      through a JoinService session; MB at --threads=2 must write the
#      --threads=1 run's pair file byte for byte;
#   3c. --threads=-3, --threads=4294967297, --async --queue-capacity=-1
#      and --async --epoch-items=-1 must exit 2 naming the flag;
#   4. sssj_cli on a directory must fail (a read error is not an empty
#      stream), and so must a run whose --output is /dev/full (the pair
#      file was not written);
#   5. tiered storage: at --lambda=0.001, --index=L2 and --index=INV with
#      --tiered must write pair files byte-identical to the untiered
#      runs, and --memory must show that something froze (the bytes
#      differ); --value-tier=bf16, an unknown flag, must exit 2;
#   5a. dead posting lists are erased: on a 2,000-item Tweets-like
#      stream (make_dataset --profile=Tweets --scale=0.25) at θ 0.7,
#      λ 0.01, --memory must report at most half the bytes an index that
#      never erases a list holds, for --index=L2, INV and L2AP;
#   5b. the retired AUTO scheme: --index=AUTO must exit 1 naming AUTO (a
#      bad --index), and --duel-epoch=2048 must exit 2 as an unknown flag;
#   6. checkpoint round trip: the text file is split in two, and for
#      --index=L2, --index=INV, --index=L2AP and
#      --tiered --index=INV (at --lambda=0.001) the first half runs with
#      --checkpoint-out and the second with --checkpoint-in. The two pair
#      files, concatenated, must equal one run over the whole file: byte
#      for byte, except for L2AP, whose resumed max vector covers only
#      the live items (so its float summation order can change) and
#      which must give the same set of pair ids. MB is left out:
#      sssj_cli flushes its windows before --checkpoint-out.
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

# Async ingestion. The pump applies items in ticket order through the
# inline push path, so each async run must equal its inline run byte for
# byte. With a 3-item queue and 2-item epochs the reader blocks on about
# every other submit. The --submit=timeout run keeps the default
# 4096-item queue, which holds this whole 1000-item stream, so no submit
# can time out on a loaded machine.
run_step("sssj_cli MB" "${SSSJ_CLI}" "--input=${text}" --theta=0.6
         --lambda=0.01 --framework=MB "--output=${WORK_DIR}/pairs-MB.txt"
         --quiet)
foreach(variant STR MB timeout)
  set(want "${WORK_DIR}/pairs.text")
  if(variant STREQUAL "STR")
    set(args --queue-capacity=3 --epoch-items=2)
  elseif(variant STREQUAL "MB")
    set(args --framework=MB --queue-capacity=3 --epoch-items=2)
    set(want "${WORK_DIR}/pairs-MB.txt")
  else()
    set(args --submit=timeout)
  endif()
  file(SIZE "${want}" size)
  if(size EQUAL 0)
    message(FATAL_ERROR "the inline ${variant} run wrote no pairs")
  endif()
  set(got "${WORK_DIR}/async-${variant}.txt")
  run_step("sssj_cli --async ${variant}" "${SSSJ_CLI}" "--input=${text}"
           --theta=0.6 --lambda=0.01 --quiet --async ${args}
           "--output=${got}")
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${want}"
                          "${got}"
                  RESULT_VARIABLE differ)
  if(NOT differ EQUAL 0)
    message(FATAL_ERROR "--async ${variant}: pairs differ from the inline "
                        "run's")
  endif()
endforeach()

# Threads. STR ignores --threads and says so; MB's window-close fan-out
# emits the sequential pair sequence. The MB run above used the default
# --threads=1.
execute_process(COMMAND "${SSSJ_CLI}" "--input=${text}" --theta=0.6
                        --lambda=0.01 --threads=2 --quiet
                        "--output=${WORK_DIR}/threads2-STR.txt"
                RESULT_VARIABLE rc
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT err MATCHES "note: [^\n]*num_threads")
  message(FATAL_ERROR "sssj_cli --threads=2 exited ${rc} without a note "
                      "naming num_threads:\n${err}")
endif()
execute_process(COMMAND "${SSSJ_CLI}" "--input=${text}" --theta=0.6
                        --lambda=0.01 --threads=4 --memory-budget=100000000
                        --quiet "--output=${WORK_DIR}/threads4-budget.txt"
                RESULT_VARIABLE rc
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT err MATCHES "note: num_threads=4 is ignored")
  message(FATAL_ERROR "sssj_cli --threads=4 --memory-budget exited ${rc} "
                      "without the num_threads note:\n${err}")
endif()
run_step("sssj_cli MB --threads=2" "${SSSJ_CLI}" "--input=${text}"
         --theta=0.6 --lambda=0.01 --framework=MB --threads=2 --quiet
         "--output=${WORK_DIR}/threads2-MB.txt")
foreach(variant STR MB)
  if(variant STREQUAL "STR")
    set(want "${WORK_DIR}/pairs.text")
  else()
    set(want "${WORK_DIR}/pairs-MB.txt")
  endif()
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${want}"
                          "${WORK_DIR}/threads2-${variant}.txt"
                  RESULT_VARIABLE differ)
  if(NOT differ EQUAL 0)
    message(FATAL_ERROR "${variant} --threads=2: pairs differ from the "
                        "--threads=1 run's")
  endif()
endforeach()

# Integer flags take a value >= 1 that fits their type. Each of these
# exits before the stream is read, so none starts a pool.
function(expect_bad_int flag)
  execute_process(COMMAND "${SSSJ_CLI}" "--input=${text}" --quiet ${ARGN}
                  RESULT_VARIABLE rc
                  OUTPUT_QUIET
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "invalid value for --${flag}")
    message(FATAL_ERROR "sssj_cli ${ARGN} exited ${rc}, not 2 naming "
                        "--${flag}:\n${err}")
  endif()
  message(STATUS "sssj_cli ${ARGN} (exit 2): ${err}")
endfunction()
expect_bad_int(threads --threads=-3)
expect_bad_int(threads --threads=4294967297)
expect_bad_int(queue-capacity --async --queue-capacity=-1)
expect_bad_int(epoch-items --async --epoch-items=-1)

execute_process(COMMAND "${SSSJ_CLI}" "--input=${WORK_DIR}" --quiet
                RESULT_VARIABLE rc
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "sssj_cli --input=<a directory> exited 0:\n${err}")
endif()
message(STATUS "sssj_cli on a directory (exit ${rc}): ${err}")

# /dev/full takes the open and refuses the write: the run must fail
# naming --output, not report its pairs as written.
if(EXISTS /dev/full)
  execute_process(COMMAND "${SSSJ_CLI}" "--input=${text}" --output=/dev/full
                          --quiet
                  RESULT_VARIABLE rc
                  OUTPUT_QUIET
                  ERROR_VARIABLE err)
  if(rc EQUAL 0 OR NOT err MATCHES "cannot write --output")
    message(FATAL_ERROR "sssj_cli --output=/dev/full exited ${rc}:\n${err}")
  endif()
  message(STATUS "sssj_cli --output=/dev/full (exit ${rc}): ${err}")
endif()

# Tiered storage. At the lambda 0.01 used elsewhere in this script nothing on
# this stream freezes; at 0.001 the lists grow long enough to.
function(memory_bytes name out_var)
  execute_process(COMMAND ${ARGN}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${name} failed (${rc}):\n${out}${err}")
  endif()
  if(NOT err MATCHES "memory: ([0-9]+) bytes")
    message(FATAL_ERROR "${name} printed no memory line:\n${err}")
  endif()
  set(${out_var} "${CMAKE_MATCH_1}" PARENT_SCOPE)
endfunction()

foreach(index L2 INV)
  set(common "--input=${text}" --theta=0.6 --lambda=0.001 --quiet --memory
             "--index=${index}")
  memory_bytes("sssj_cli ${index} untiered" flat_bytes "${SSSJ_CLI}"
               ${common} "--output=${WORK_DIR}/flat-${index}.txt")
  memory_bytes("sssj_cli ${index} tiered" tiered_bytes "${SSSJ_CLI}"
               ${common} --tiered "--output=${WORK_DIR}/tiered-${index}.txt")
  file(SIZE "${WORK_DIR}/flat-${index}.txt" size)
  if(size EQUAL 0)
    message(FATAL_ERROR "sssj_cli ${index} wrote no pairs at lambda 0.001")
  endif()
  if(flat_bytes EQUAL tiered_bytes)
    message(FATAL_ERROR "${index}: --tiered froze nothing "
                        "(${tiered_bytes} bytes either way)")
  endif()
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                          "${WORK_DIR}/flat-${index}.txt"
                          "${WORK_DIR}/tiered-${index}.txt"
                  RESULT_VARIABLE differ)
  if(NOT differ EQUAL 0)
    message(FATAL_ERROR "${index}: tiered pairs differ from untiered")
  endif()
  message(STATUS "tiered ${index}: same pairs, ${flat_bytes} -> "
                 "${tiered_bytes} bytes")
endforeach()

# Dead-list erasure. An index that never erased a list read 1,355,248
# (L2), 1,406,240 (INV) and 1,413,008 (L2AP) bytes on this stream; each
# must now hold at most half that, so erasure cannot be switched off
# silently.
set(tweets "${WORK_DIR}/tweets.txt")
run_step(make_dataset_tweets "${MAKE_DATASET}" --profile=Tweets --scale=0.25
         "--out=${tweets}")
foreach(pair "L2:1355248" "INV:1406240" "L2AP:1413008")
  string(REPLACE ":" ";" pair "${pair}")
  list(GET pair 0 index)
  list(GET pair 1 never_erased)
  memory_bytes("sssj_cli ${index} Tweets-like" bytes "${SSSJ_CLI}"
               "--input=${tweets}" --theta=0.7 --lambda=0.01 --quiet --memory
               "--index=${index}" "--output=${WORK_DIR}/tweets-${index}.txt")
  math(EXPR limit "${never_erased} / 2")
  if(bytes GREATER limit)
    message(FATAL_ERROR "${index}: ${bytes} bytes on the Tweets-like stream, "
                        "over half of ${never_erased}: are dead lists erased?")
  endif()
  message(STATUS "dead lists ${index}: ${bytes} bytes (limit ${limit})")
endforeach()

execute_process(COMMAND "${SSSJ_CLI}" "--input=${text}" --value-tier=bf16
                        --quiet
                RESULT_VARIABLE rc
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "sssj_cli --value-tier=bf16 exited ${rc}, not 2:\n"
                      "${err}")
endif()

execute_process(COMMAND "${SSSJ_CLI}" "--input=${text}" --index=AUTO --quiet
                RESULT_VARIABLE rc
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT rc EQUAL 1 OR NOT err MATCHES "AUTO")
  message(FATAL_ERROR "sssj_cli --index=AUTO exited ${rc}, not 1 with a "
                      "message naming AUTO:\n${err}")
endif()
execute_process(COMMAND "${SSSJ_CLI}" "--input=${text}" --duel-epoch=2048
                        --quiet
                RESULT_VARIABLE rc
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "unknown flag --duel-epoch")
  message(FATAL_ERROR "sssj_cli --duel-epoch=2048 exited ${rc}, not 2 as an "
                      "unknown flag:\n${err}")
endif()

# Checkpoint round trip over the two halves of the text stream.
file(STRINGS "${text}" lines)
list(LENGTH lines num_lines)
math(EXPR half "${num_lines} / 2")
list(SUBLIST lines 0 ${half} head)
list(SUBLIST lines ${half} -1 tail)
list(JOIN head "\n" head_text)
list(JOIN tail "\n" tail_text)
file(WRITE "${WORK_DIR}/half1.txt" "${head_text}\n")
file(WRITE "${WORK_DIR}/half2.txt" "${tail_text}\n")

# The "a b" id pairs of a pair file, sorted.
function(pair_ids path out_var)
  file(STRINGS "${path}" pair_lines)
  set(ids "")
  foreach(line IN LISTS pair_lines)
    string(REGEX MATCH "^[0-9]+ [0-9]+" id_pair "${line}")
    list(APPEND ids "${id_pair}")
  endforeach()
  list(SORT ids)
  set(${out_var} "${ids}" PARENT_SCOPE)
endfunction()

foreach(variant L2 INV L2AP tiered-INV)
  set(lambda 0.01)
  if(variant STREQUAL "tiered-INV")
    set(args --tiered --index=INV)
    set(lambda 0.001)  # long enough lists to freeze, see above
  else()
    set(args "--index=${variant}")
  endif()
  set(dir "${WORK_DIR}/roundtrip-${variant}")
  file(MAKE_DIRECTORY "${dir}")
  set(common --theta=0.6 "--lambda=${lambda}" --quiet ${args})
  run_step("sssj_cli ${variant} whole" "${SSSJ_CLI}" "--input=${text}"
           ${common} "--output=${dir}/whole.txt")
  run_step("sssj_cli ${variant} half 1" "${SSSJ_CLI}"
           "--input=${WORK_DIR}/half1.txt" ${common}
           "--output=${dir}/half1.pairs" "--checkpoint-out=${dir}/ckpt")
  run_step("sssj_cli ${variant} half 2" "${SSSJ_CLI}"
           "--input=${WORK_DIR}/half2.txt" ${common}
           "--output=${dir}/half2.pairs" "--checkpoint-in=${dir}/ckpt")
  file(SIZE "${dir}/whole.txt" size)
  if(size EQUAL 0)
    message(FATAL_ERROR "sssj_cli ${variant} wrote no pairs")
  endif()
  file(READ "${dir}/half1.pairs" first)
  file(READ "${dir}/half2.pairs" second)
  file(WRITE "${dir}/resumed.txt" "${first}${second}")
  if(variant STREQUAL "L2AP")
    pair_ids("${dir}/whole.txt" whole_ids)
    pair_ids("${dir}/resumed.txt" resumed_ids)
    if(NOT whole_ids STREQUAL resumed_ids)
      message(FATAL_ERROR "${variant}: the resumed run's pair ids differ "
                          "from the whole run's")
    endif()
  else()
    execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                            "${dir}/whole.txt" "${dir}/resumed.txt"
                    RESULT_VARIABLE differ)
    if(NOT differ EQUAL 0)
      message(FATAL_ERROR "${variant}: the resumed run's pairs differ from "
                          "the whole run's")
    endif()
  endif()
  message(STATUS "checkpoint round trip ${variant}: resumed == whole")
endforeach()
