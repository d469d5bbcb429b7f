# `rtk-corpus run` on a file of 2,000,000 '[' must exit 1 with the JSON
# nesting diagnostic (it used to overflow the parser's stack).
#
#   cmake -DTOOL=<rtk-corpus> -DWORK_DIR=<dir> -P check_deep_json.cmake
set(path ${WORK_DIR}/deep_json_2M.json)
string(REPEAT "[" 2000000 text)
file(WRITE ${path} "${text}")
execute_process(
    COMMAND ${TOOL} run ${path}
    RESULT_VARIABLE rc
    ERROR_VARIABLE err
    OUTPUT_QUIET)
file(REMOVE ${path})
if(NOT rc EQUAL 1)
    message(FATAL_ERROR "expected exit 1, got '${rc}'; stderr: ${err}")
endif()
if(NOT err MATCHES "nesting deeper than 256 levels")
    message(FATAL_ERROR "missing nesting diagnostic; stderr: ${err}")
endif()
message(STATUS "rejected: ${err}")
