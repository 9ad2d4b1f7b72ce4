# Runs one binary and compares its stdout byte for byte with a golden file.
#
#   cmake -DBINARY=<exe> -DGOLDEN=<file.txt> -DOUTPUT=<scratch.txt> -P compare_stdout.cmake
#
# A nonzero exit of the binary or any difference from the golden fails the
# test; on a mismatch the output is kept at OUTPUT and a unified diff is
# printed when `diff` is available.
foreach(var BINARY GOLDEN OUTPUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "compare_stdout.cmake: -D${var}=... is required")
  endif()
endforeach()

get_filename_component(output_dir ${OUTPUT} DIRECTORY)
file(MAKE_DIRECTORY ${output_dir})
execute_process(COMMAND ${BINARY} OUTPUT_FILE ${OUTPUT} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BINARY} exited with ${rc}")
endif()

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${OUTPUT}
                RESULT_VARIABLE differs)
if(differs)
  find_program(DIFF diff)
  if(DIFF)
    execute_process(COMMAND ${DIFF} -u ${GOLDEN} ${OUTPUT})
  endif()
  message(FATAL_ERROR "stdout of ${BINARY} differs from ${GOLDEN} (output kept at ${OUTPUT})")
endif()
