# Golden round trip for a tool with --write-golden/--golden: TOOL
# with ARGS ('|'-separated) writes its golden to GOLDEN, must match it
# again through the space-separated `--golden FILE` spelling (exit 0),
# and must report drift (exit 1, "DRIFT at line" on stderr) once one
# digit of the golden's last line is changed.
#
#   cmake -DTOOL=<exe> -DARGS=<a|b|...> -DGOLDEN=<file>
#         -P expect_golden.cmake
string(REPLACE "|" ";" args "${ARGS}")

function(run_tool expect_rc)
    execute_process(COMMAND "${TOOL}" ${args} ${ARGN}
        RESULT_VARIABLE rc
        OUTPUT_QUIET
        ERROR_VARIABLE err
        TIMEOUT 240)
    if(NOT rc STREQUAL "${expect_rc}")
        message(FATAL_ERROR
            "${ARGN}: expected exit status ${expect_rc}, got '${rc}'\n"
            "${err}")
    endif()
    set(err "${err}" PARENT_SCOPE)
endfunction()

run_tool(0 "--write-golden=${GOLDEN}")
run_tool(0 --golden "${GOLDEN}")

# Bump the first digit of the last line (the file ends in a newline).
file(READ "${GOLDEN}" text)
string(REGEX REPLACE "\n$" "" body "${text}")
string(FIND "${body}" "\n" cut REVERSE)
math(EXPR cut "${cut} + 1")
string(SUBSTRING "${body}" 0 ${cut} head)
string(SUBSTRING "${body}" ${cut} -1 last)
string(REGEX MATCH "^[^0-9]*" prefix "${last}")
string(LENGTH "${prefix}" at)
string(SUBSTRING "${last}" ${at} 1 digit)
if(digit STREQUAL "")
    message(FATAL_ERROR "no digit in the golden's last line: ${last}")
endif()
math(EXPR bumped "(${digit} + 1) % 10")
math(EXPR after "${at} + 1")
string(SUBSTRING "${last}" ${after} -1 tail)
file(WRITE "${GOLDEN}.drift" "${head}${prefix}${bumped}${tail}\n")

run_tool(1 --golden "${GOLDEN}.drift")
if(NOT err MATCHES "DRIFT at line")
    message(FATAL_ERROR "drift not reported as 'DRIFT at line':\n${err}")
endif()
message(STATUS "golden round trip ok")
