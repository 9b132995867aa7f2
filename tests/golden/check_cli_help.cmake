# Asserts `<tool> --help` prints the tool's usage text to stdout, nothing
# to stderr, and exits 0 (the one flag protocol, simcore/flag_parser.hpp).
# Driven by tests/CMakeLists.txt; variables: TOOL (binary).
execute_process(
    COMMAND ${TOOL} --help
    OUTPUT_VARIABLE tool_stdout
    ERROR_VARIABLE tool_stderr
    RESULT_VARIABLE run_rc)
if(NOT run_rc EQUAL 0)
    message(FATAL_ERROR "${TOOL} --help: expected exit 0, got rc=${run_rc}")
endif()
if(NOT tool_stdout MATCHES "^usage: ")
    message(FATAL_ERROR
        "${TOOL} --help: expected the usage text on stdout, got "
        "'${tool_stdout}'")
endif()
if(NOT tool_stderr STREQUAL "")
    message(FATAL_ERROR
        "${TOOL} --help: expected nothing on stderr, got '${tool_stderr}'")
endif()
