# Exit-code check: runs `safeopt <ARGS>` from SOURCE_DIR and requires exit
# status EXIT and stdout + stderr matching the regular expression MATCH.
#
#   cmake -DCLI=<safeopt> "-DARGS=quantify|tests/cli/x.ft|--at|T=16"
#         -DEXIT=3 "-DMATCH=must be numeric" -DSOURCE_DIR=<repo>
#         -P cmake/cli_expect.cmake
#
# ARGS separates the arguments with '|'.
foreach(var CLI ARGS EXIT MATCH SOURCE_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_expect.cmake: -D${var}=... is required")
  endif()
endforeach()
string(REPLACE "|" ";" ARGS "${ARGS}")

execute_process(
  COMMAND "${CLI}" ${ARGS}
  WORKING_DIRECTORY "${SOURCE_DIR}"
  OUTPUT_VARIABLE output
  ERROR_VARIABLE errors
  RESULT_VARIABLE status)
string(REPLACE ";" " " command "${ARGS}")
if(NOT status STREQUAL EXIT)
  message(FATAL_ERROR "safeopt ${command} exited ${status}, expected "
                      "${EXIT}:\n${output}${errors}")
endif()
if(NOT "${output}${errors}" MATCHES "${MATCH}")
  message(FATAL_ERROR "safeopt ${command}: output does not match "
                      "\"${MATCH}\":\n${output}${errors}")
endif()
