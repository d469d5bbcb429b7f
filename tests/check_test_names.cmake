# Fails if any registered ctest name carries a raw byte dump of a test
# parameter (`# GetParam() = N-byte object <..>`). gtest prints such a
# dump for parameter types without a PrintTo; when the type holds
# pointers the dump changes with every build, so the name does too.
#
#   cmake -DCTEST=<ctest> -DBUILD_DIR=<build tree> -P check_test_names.cmake
execute_process(
    COMMAND ${CTEST} -N
    WORKING_DIRECTORY ${BUILD_DIR}
    OUTPUT_VARIABLE listing
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "ctest -N failed (${rc})")
endif()
string(REGEX MATCH "Total Tests: ([0-9]+)" total "${listing}")
set(total ${CMAKE_MATCH_1})
if(NOT total GREATER 0)
    message(FATAL_ERROR "ctest -N listed no tests")
endif()
string(REGEX MATCHALL "Test +#[0-9]+: [^\n]*GetParam\\(\\) = [^\n]*object <[^\n]*"
       dumps "${listing}")
list(LENGTH dumps n)
if(n GREATER 0)
    list(JOIN dumps "\n" text)
    message(FATAL_ERROR "${n} test name(s) embed a raw parameter dump; "
                        "give the parameter type a PrintTo:\n${text}")
endif()
message(STATUS "${total} test names, none with a raw parameter dump")
