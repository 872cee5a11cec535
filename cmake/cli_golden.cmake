# Front-door golden check: runs `safeopt <COMMAND> <MODEL> --json` from
# SOURCE_DIR and compares its stdout byte for byte with GOLDEN.
#
#   cmake -DCLI=<safeopt> -DCOMMAND=run -DMODEL=examples/models/x.ft
#         -DGOLDEN=<file> -DSOURCE_DIR=<repo> -P cmake/cli_golden.cmake
#
# The model path is relative to SOURCE_DIR so the "model" field of the JSON
# is the same on every checkout.
foreach(var CLI COMMAND MODEL GOLDEN SOURCE_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_golden.cmake: -D${var}=... is required")
  endif()
endforeach()

execute_process(
  COMMAND "${CLI}" "${COMMAND}" "${MODEL}" --json
  WORKING_DIRECTORY "${SOURCE_DIR}"
  OUTPUT_VARIABLE actual
  ERROR_VARIABLE errors
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "safeopt ${COMMAND} ${MODEL} exited ${status}:\n"
                      "${errors}")
endif()

file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "safeopt ${COMMAND} ${MODEL} --json differs from "
                      "${GOLDEN}\n--- expected\n${expected}--- actual\n"
                      "${actual}")
endif()
