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
