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
#                 --nodes/--trace-cell), --jobs outside sweep and the removed
#                 --n/--iters flags are rejected with an `error:` line naming
#                 the flag
#   bad_files     `merge` over missing, truncated, duplicate and absent shard
#                 files, over a shard whose arch was edited under its recorded
#                 fingerprint, `merge` without shard arguments and `run --trace`
#                 into a missing directory fail with a message naming the cause
#   csv_export    `--out full.csv` writes exactly tests/goldens/cli_sweep_grid.csv,
#                 and so do `--jobs 1` and `--jobs 3`; a shard of a split sweep
#                 refuses a .csv --out
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
  cli_fails_with("CSV cannot describe a mergeable shard" sweep ${GRID_ARGS} --shard 1/2
                 --out part.csv)
  if(EXISTS ${WORKDIR}/part.csv)
    message(FATAL_ERROR "${FLOW}: a refused shard export wrote part.csv")
  endif()
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
