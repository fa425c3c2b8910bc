# Runs TOOL with ARGS ('|'-separated) and fails unless it exits with
# the usage-error status 2 within 30 s: a bad flag value must be
# rejected up front, not wrap into an endless run or an abort. A
# caught panic also exits 2, so stderr must not hold "panic:".
#
#   cmake -DTOOL=<exe> -DARGS=<a|b|...> -P expect_usage_error.cmake
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${TOOL}" ${args}
    RESULT_VARIABLE rc
    OUTPUT_QUIET
    ERROR_VARIABLE err
    TIMEOUT 30)
if(NOT rc STREQUAL "2")
    message(FATAL_ERROR "expected exit status 2, got '${rc}'\n${err}")
endif()
string(FIND "${err}" "panic:" panic_at)
if(NOT panic_at EQUAL -1)
    message(FATAL_ERROR "a panic, not a usage error:\n${err}")
endif()
message(STATUS "rejected as expected: ${err}")
