# Byte-exact stdout check: TOOL with ARGS ('|'-separated) must exit 0
# and print exactly the contents of EXPECTED. On a mismatch the actual
# stdout is left in ACTUAL for a diff against EXPECTED.
#
#   cmake -DTOOL=<exe> -DARGS=<a|b|...> -DEXPECTED=<file>
#         -DACTUAL=<file> -P expect_stdout.cmake
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${TOOL}" ${args}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    TIMEOUT 240)
if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "expected exit status 0, got '${rc}'\n${err}")
endif()
file(READ "${EXPECTED}" want)
if(NOT out STREQUAL want)
    file(WRITE "${ACTUAL}" "${out}")
    message(FATAL_ERROR "stdout differs from ${EXPECTED}; "
        "diff it against ${ACTUAL}")
endif()
message(STATUS "stdout matches ${EXPECTED}")
