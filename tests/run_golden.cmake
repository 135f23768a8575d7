# Runs one program and compares its stdout byte for byte with a golden
# file.  Usage (see tests/CMakeLists.txt):
#   cmake -DPROGRAM=<exe> "-DARGS=<space-separated args>" -DGOLDEN=<file>
#         -P run_golden.cmake
separate_arguments(_args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROGRAM}" ${_args}
                OUTPUT_VARIABLE _out
                RESULT_VARIABLE _rc)
if(NOT _rc EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} ${ARGS} exited with ${_rc}")
endif()
file(READ "${GOLDEN}" _want)
if(NOT _out STREQUAL _want)
  message(FATAL_ERROR "stdout of ${PROGRAM} ${ARGS} differs from ${GOLDEN}:\n"
                      "${_out}")
endif()
