# Runs one program as a tier-1 smoke test: the program must exit 0 and, when
# MATCH is given, print output matching that regular expression.
#
#   cmake -DPROGRAM=<path> [-DMATCH=<regex>] -P tests/smoke_run.cmake
execute_process(COMMAND ${PROGRAM}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} exited with ${status}\n${out}${err}")
endif()
if(DEFINED MATCH AND NOT out MATCHES "${MATCH}")
  message(FATAL_ERROR "${PROGRAM} printed nothing matching '${MATCH}'\n${out}")
endif()
