# End-to-end `cello_cli sweep` flows over the grid of the sharded-sweep CI
# workflow, each compared byte for byte against an uninterrupted full sweep:
#
#   cmake -DCLI=<example_cello_cli> -DWORKDIR=<dir> -DFLOW=<flow> -P cli_flows.cmake
#
#   shard_merge   three shards, merged in shuffled order
#   fault_resume  an injected fault aborts a checkpointed sweep; --resume
#                 completes it from the journal
#   keep_going    a persistently failing cell is quarantined (nonzero exit,
#                 result file still written); --resume completes it
#   bad_flags     hostile numeric flag values (--sram/--bw/--jobs/--retries/
#                 --nodes/--trace-cell), a flag outside its command's entry
#                 (a sweep-only flag on every other command, --config on
#                 report/classify/merge/workloads, --bw/--sram on classify
#                 and datasets, --workload on configs) and the removed
#                 --n/--iters flags are rejected with an `error:` line naming
#                 the flag; every flag a command consumes runs once
#   bad_files     `merge` over missing, truncated, duplicate and absent shard
#                 files, over a shard whose arch was edited under its recorded
#                 fingerprint, `merge` without shard arguments and `run --trace`
#                 into a missing directory fail with a message naming the cause
#   csv_export    `--out full.csv` writes exactly tests/goldens/cli_sweep_grid.csv,
#                 and so do `--jobs 1` and `--jobs 3`; `--config Cello` writes
#                 exactly the golden's Cello rows; a shard of a split sweep
#                 refuses a .csv --out
#   trace         `sweep --trace t.json --trace-cell W,C` writes the exact bytes
#                 of `run --trace` on the same cell, and a two-cell sweep writes
#                 one `.cell<N>` file per cell, each equal to its direct run; a
#                 26-cell `--trace-cell all` sweep under `ulimit -n 16` writes
#                 every file (no descriptor stays open while cells run)
#
# The SIGKILL variant of the resume flow depends on timing and stays in CI.
foreach(var CLI WORKDIR FLOW)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_flows.cmake: -D${var}=... is required")
  endif()
endforeach()

set(GRID_ARGS
    --workload cg:m=9604,nnz=85264,n=16,iters=3
    --workload sddmm:dataset=cora,heads=2
    --workload llm:seq=512,decode_steps=4
    --nodes 1,4 --topology mesh)

file(REMOVE_RECURSE ${WORKDIR})
file(MAKE_DIRECTORY ${WORKDIR})

# cli(<expect: ok|fail> <args>...): run the CLI in WORKDIR and check its exit.
function(cli expect)
  execute_process(COMMAND ${CLI} ${ARGN} WORKING_DIRECTORY ${WORKDIR}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(expect STREQUAL "ok" AND NOT rc EQUAL 0)
    message(FATAL_ERROR "cello_cli ${ARGN} exited with ${rc}:\n${out}${err}")
  elseif(expect STREQUAL "fail" AND rc EQUAL 0)
    message(FATAL_ERROR "cello_cli ${ARGN} was expected to fail:\n${out}${err}")
  endif()
endfunction()

function(expect_same a b)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${WORKDIR}/${a} ${WORKDIR}/${b}
                  RESULT_VARIABLE differs)
  if(differs)
    message(FATAL_ERROR "${FLOW}: ${a} differs from ${b}")
  endif()
endfunction()

function(expect_nonempty f)
  if(NOT EXISTS ${WORKDIR}/${f})
    message(FATAL_ERROR "${FLOW}: ${f} was not written")
  endif()
  file(SIZE ${WORKDIR}/${f} size)
  if(size EQUAL 0)
    message(FATAL_ERROR "${FLOW}: ${f} is empty")
  endif()
endfunction()

# cli_rejects(<flag> <args>...): the CLI must fail with an `error:` line that
# names <flag>, promptly (a wrapped retry count must not spin forever).
function(cli_rejects flag)
  execute_process(COMMAND ${CLI} ${ARGN} WORKING_DIRECTORY ${WORKDIR} TIMEOUT 60
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(rc EQUAL 0 OR NOT rc MATCHES "^[0-9]+$")
    message(FATAL_ERROR "cello_cli ${ARGN} should have failed at once, got '${rc}':\n${out}${err}")
  endif()
  string(FIND "${err}" "error: " at_error)
  string(FIND "${err}" "${flag}" at_flag)
  if(at_error EQUAL -1 OR at_flag EQUAL -1)
    message(FATAL_ERROR "cello_cli ${ARGN}: expected an error naming ${flag}, got:\n${err}")
  endif()
endfunction()

if(FLOW STREQUAL "bad_flags")
  set(RUN_ARGS run --workload cg:m=2048,n=4,iters=1 --config Flex+LRU)
  set(SWEEP_ARGS sweep --workload cg:m=2048,n=4,iters=1 --config Flex+LRU)
  cli(ok ${RUN_ARGS} --sram 8 --bw 500.5)
  foreach(value -1 0 +4 4x abc 17592186044416 99999999999999999999)
    cli_rejects(--sram ${RUN_ARGS} --sram ${value})
  endforeach()
  foreach(value -5 0 -0 nan inf 1e400 abc 5GB)
    cli_rejects(--bw ${RUN_ARGS} --bw ${value})
  endforeach()
  cli(ok ${SWEEP_ARGS} --jobs 0)
  foreach(value -1 4294967296 1.5 x)
    cli_rejects(--jobs ${SWEEP_ARGS} --jobs ${value})
  endforeach()
  # --jobs sizes the sweep's worker pool; no other command has one.
  cli_rejects(--jobs ${RUN_ARGS} --jobs 1)
  cli(ok ${RUN_ARGS} --nodes 4)
  cli(ok ${RUN_ARGS} --nodes 4 --topology ring)
  cli(ok ${SWEEP_ARGS} --bw 500 --sram 8 --shard 1/1 --shard-mode strided)
  set(SMALL cg:m=512,n=4,iters=1)
  cli(ok report --workload ${SMALL} --bw 500 --sram 8)
  cli(ok classify --workload ${SMALL})
  foreach(command configs workloads datasets)
    cli(ok ${command})
  endforeach()
  # A flag its command does not consume is an error, not a silent no-op:
  # report always breaks down Cello, classify builds no arch, merge reads
  # only its files and the listings take nothing.
  cli_rejects(--config report --workload ${SMALL} --config Flexagon)
  cli_rejects(--config classify --workload ${SMALL} --config Flexagon --bw 5 --sram 2)
  cli_rejects(--bw classify --workload ${SMALL} --bw 5)
  cli_rejects(--sram classify --workload ${SMALL} --sram 2)
  cli_rejects(--config workloads --config Cello --sram 3)
  cli_rejects(--workload configs --workload cg --bw 5)
  cli_rejects(--sram datasets --sram 2)
  cli_rejects(--config merge out.json a.json --config all)
  # One sweep-only flag on each other command.
  cli_rejects(--shard ${RUN_ARGS} --shard 1/2)
  cli_rejects(--out report --workload ${SMALL} --out r.json)
  cli_rejects(--checkpoint classify --workload ${SMALL} --checkpoint c.journal)
  cli_rejects(--keep-going merge out.json a.json --keep-going)
  cli_rejects(--retries configs --retries 1)
  cli_rejects(--shard-mode workloads --shard-mode strided)
  cli_rejects(--trace-cell datasets --trace-cell 0,0)
  # Without a command the flags belong to run; the first one is read too.
  cli_rejects(--resume --resume)
  cli_rejects(--sram --sram 0)
  # The removed legacy spec flags are unknown flags now: n and iters are
  # spec parameters ("cg:n=2,iters=1").
  cli_rejects(--n ${RUN_ARGS} --n 2)
  cli_rejects(--iters ${RUN_ARGS} --iters 1)
  foreach(value -1 0 x 99999999999999999999)
    cli_rejects(--nodes ${RUN_ARGS} --nodes ${value})
    cli_rejects(--nodes sweep --workload cg:m=2048,n=4,iters=1 --config Flex+LRU
                --nodes 1,${value})
  endforeach()
  foreach(value 99999999999999999999,0 0,-1 +0,0 x,0)
    cli_rejects(--trace-cell sweep --workload cg:m=2048,n=4,iters=1 --config Flex+LRU
                --trace trace.json --trace-cell ${value})
  endforeach()
  set(ENV{CELLO_FAILPOINTS} "sweep.cell=throw@key=0")
  foreach(value -1 4294967296 x)
    cli_rejects(--retries sweep --workload cg:m=2048,n=4,iters=1 --config Flex+LRU
                --keep-going --retries ${value})
  endforeach()
  unset(ENV{CELLO_FAILPOINTS})
  return()
endif()

# cli_fails_with(<text> <args>...): the CLI must exit non-zero and print <text>.
function(cli_fails_with text)
  execute_process(COMMAND ${CLI} ${ARGN} WORKING_DIRECTORY ${WORKDIR} TIMEOUT 60
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(rc EQUAL 0 OR NOT rc MATCHES "^[0-9]+$")
    message(FATAL_ERROR "cello_cli ${ARGN} should have failed, got '${rc}':\n${out}${err}")
  endif()
  string(FIND "${out}${err}" "${text}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "cello_cli ${ARGN}: expected '${text}', got:\n${out}${err}")
  endif()
endfunction()

if(FLOW STREQUAL "bad_files")
  set(SMALL_GRID sweep --workload cg:m=2048,n=4,iters=1 --workload cg:m=1024,n=4,iters=1
                 --config Cello)
  foreach(i 1 2)
    cli(ok ${SMALL_GRID} --shard ${i}/2 --out shard-${i}.json)
  endforeach()
  file(READ ${WORKDIR}/shard-1.json whole)
  string(LENGTH "${whole}" size)
  math(EXPR half "${size} / 2")
  string(SUBSTRING "${whole}" 0 ${half} truncated)
  file(WRITE ${WORKDIR}/truncated.json "${truncated}")
  # Both shards edited alike still agree with each other; only their own
  # recorded fingerprints give the edit away.
  foreach(i 1 2)
    file(READ ${WORKDIR}/shard-${i}.json text)
    string(REPLACE "\"sram_bytes\": 4194304," "\"sram_bytes\": 1048576," tampered "${text}")
    if(tampered STREQUAL text)
      message(FATAL_ERROR "${FLOW}: shard-${i}.json has no 4 MiB sram_bytes field to edit")
    endif()
    file(WRITE ${WORKDIR}/tampered-${i}.json "${tampered}")
  endforeach()

  cli_fails_with("shard file 'absent.json'" merge merged.json shard-1.json absent.json)
  cli_fails_with("shard file 'truncated.json'" merge merged.json shard-1.json truncated.json)
  cli_fails_with("duplicate shard 1/2" merge merged.json shard-1.json shard-1.json)
  cli_fails_with("shard file 'tampered-1.json'" merge merged.json tampered-1.json tampered-2.json)
  cli_fails_with("split 2 ways but 1 shard(s)" merge merged.json shard-1.json)
  cli_fails_with("usage: cello_cli merge" merge)
  cli_fails_with("usage: cello_cli merge" merge merged.json)
  if(EXISTS ${WORKDIR}/merged.json)
    message(FATAL_ERROR "${FLOW}: a failed merge wrote merged.json")
  endif()
  cli(ok merge merged.json shard-2.json shard-1.json)

  cli_fails_with("cannot write '/nonexistent/dir/t.json'"
                 run --workload cg:m=2048,n=4,iters=1 --config Cello
                 --trace /nonexistent/dir/t.json)
  return()
endif()

if(FLOW STREQUAL "csv_export")
  cli(ok sweep ${GRID_ARGS} --out full.csv)
  configure_file(${CMAKE_CURRENT_LIST_DIR}/../goldens/cli_sweep_grid.csv
                 ${WORKDIR}/golden.csv COPYONLY)
  expect_same(full.csv golden.csv)
  foreach(jobs 1 3)
    cli(ok sweep ${GRID_ARGS} --jobs ${jobs} --out jobs-${jobs}.csv)
    expect_same(jobs-${jobs}.csv golden.csv)
  endforeach()
  # --config makes a one-configuration grid: the header plus the golden's
  # Cello rows, one per workload and fabric.  (";" would split CMake lists,
  # so it is masked while the golden is cut into lines.)
  cli(ok sweep ${GRID_ARGS} --config Cello --out cello.csv)
  file(READ ${WORKDIR}/golden.csv golden)
  string(REPLACE ";" "<semicolon>" golden "${golden}")
  string(REGEX MATCHALL "[^\n]+" lines "${golden}")
  set(cello_rows "")
  foreach(line IN LISTS lines)
    if(line MATCHES "^workload,|,Cello,")
      string(APPEND cello_rows "${line}\n")
    endif()
  endforeach()
  string(REPLACE "<semicolon>" ";" cello_rows "${cello_rows}")
  file(WRITE ${WORKDIR}/golden-cello.csv "${cello_rows}")
  expect_same(cello.csv golden-cello.csv)
  cli_fails_with("CSV cannot describe a mergeable shard" sweep ${GRID_ARGS} --shard 1/2
                 --out part.csv)
  if(EXISTS ${WORKDIR}/part.csv)
    message(FATAL_ERROR "${FLOW}: a refused shard export wrote part.csv")
  endif()
  return()
endif()

# cli_prints(<regex> <args>...): the CLI must succeed and print a stdout line
# matching <regex>.
function(cli_prints regex)
  execute_process(COMMAND ${CLI} ${ARGN} WORKING_DIRECTORY ${WORKDIR} TIMEOUT 60
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "cello_cli ${ARGN} exited with ${rc}:\n${out}${err}")
  endif()
  if(NOT out MATCHES "${regex}")
    message(FATAL_ERROR "cello_cli ${ARGN}: expected a line matching '${regex}', got:\n${out}")
  endif()
endfunction()

if(FLOW STREQUAL "trace")
  # Shape-only CG rows keep every traced run fast.  Config 6 is Cello and
  # config 1 Flex+LRU (registration order), so both the explicit-buffer and
  # the trace-driven cache paths are covered.
  set(W0 cg:m=2048,n=4,iters=1)
  set(W1 cg:m=1024,n=4,iters=2)
  cli_prints("wrote trace direct-0-6.json \\([0-9]+ events\\)"
             run --workload ${W0} --config Cello --trace direct-0-6.json)
  cli(ok run --workload ${W1} --config Flex+LRU --trace direct-1-1.json)

  # One named cell writes the --trace path itself.
  cli_prints("wrote trace one.json \\([0-9]+ events\\)"
             sweep --workload ${W0} --trace one.json --trace-cell 0,6)
  expect_same(one.json direct-0-6.json)
  if(EXISTS ${WORKDIR}/one.cell6.json)
    message(FATAL_ERROR "${FLOW}: a one-cell sweep trace wrote one.cell6.json")
  endif()

  # Several cells write one ".cell<N>" file each, N the flattened row-major
  # id: (0,6) is cell 6 and (1,1) is cell 13 + 1 = 14 of the 13-config rows.
  cli_prints("wrote trace two.cell14.json \\(cell 14, [0-9]+ events\\)"
             sweep --workload ${W0} --workload ${W1} --trace two.json
             --trace-cell 1,1 --trace-cell 0,6)
  expect_same(two.cell6.json direct-0-6.json)
  expect_same(two.cell14.json direct-1-1.json)
  if(EXISTS ${WORKDIR}/two.json)
    message(FATAL_ERROR "${FLOW}: a two-cell sweep trace wrote two.json itself")
  endif()

  # Every cell of the 26-cell grid traced under a 16-descriptor limit: more
  # files than descriptors, so none may stay open while the cells run.
  execute_process(COMMAND sh -c "ulimit -n 16 && exec \"$0\" \"$@\"" ${CLI}
                          sweep --workload ${W0} --workload ${W1}
                          --trace all.json --trace-cell all
                  WORKING_DIRECTORY ${WORKDIR} TIMEOUT 120
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${FLOW}: --trace-cell all under ulimit -n 16 exited with ${rc}:\n"
                        "${out}${err}")
  endif()
  foreach(cell RANGE 25)
    expect_nonempty(all.cell${cell}.json)
  endforeach()
  expect_same(all.cell6.json direct-0-6.json)
  expect_same(all.cell14.json direct-1-1.json)
  return()
endif()

cli(ok sweep ${GRID_ARGS} --out reference.json)

if(FLOW STREQUAL "shard_merge")
  foreach(i 1 2 3)
    cli(ok sweep ${GRID_ARGS} --shard ${i}/3 --out shard-${i}.json)
  endforeach()
  cli(ok merge merged.json shard-2.json shard-3.json shard-1.json)
  expect_same(merged.json reference.json)
elseif(FLOW STREQUAL "fault_resume")
  set(ENV{CELLO_FAILPOINTS} "sweep.cell=throw@key=20")
  cli(fail sweep ${GRID_ARGS} --checkpoint fault.journal --out fault.json)
  unset(ENV{CELLO_FAILPOINTS})
  expect_nonempty(fault.journal)
  cli(ok sweep ${GRID_ARGS} --checkpoint fault.journal --resume --out fault.json)
  expect_same(fault.json reference.json)
elseif(FLOW STREQUAL "keep_going")
  set(ENV{CELLO_FAILPOINTS} "sweep.cell=throw@key=7")
  cli(fail sweep ${GRID_ARGS} --checkpoint quarantine.journal --keep-going --retries 1
      --out quarantine.json)
  unset(ENV{CELLO_FAILPOINTS})
  expect_nonempty(quarantine.json)
  cli(ok sweep ${GRID_ARGS} --checkpoint quarantine.journal --resume --out quarantine.json)
  expect_same(quarantine.json reference.json)
else()
  message(FATAL_ERROR "cli_flows.cmake: unknown FLOW '${FLOW}'")
endif()
