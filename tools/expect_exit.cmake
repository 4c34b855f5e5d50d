# Run a command and fail unless it exits with status EXPECT_EXIT:
#   cmake -DEXPECT_EXIT=2 -P expect_exit.cmake -- <command> [args...]
# A crash, an uncaught exception or any other status fails the check.
# With -DEXPECTED_STDOUT=<golden>, the command's stdout must also equal the
# golden file. Lines that report real wall-clock time ("real wall clock")
# vary from run to run, so they are dropped from both sides first.
# With -DOUTPUT_FILE=<file> -DEXPECTED_FILE=<golden>, the file the command
# wrote must equal the golden byte for byte.
set(cmd "")
set(collect FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(collect)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(collect TRUE)
  endif()
endforeach()
if(NOT cmd)
  message(FATAL_ERROR "expect_exit.cmake: no command after --")
endif()
if(DEFINED OUTPUT_FILE)
  file(REMOVE "${OUTPUT_FILE}")  # a stale copy must not pass for this run's
endif()
execute_process(COMMAND ${cmd} RESULT_VARIABLE status OUTPUT_VARIABLE actual)
if(NOT "${status}" STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR "exit status '${status}', expected ${EXPECT_EXIT}\n${actual}")
endif()
if(DEFINED EXPECTED_STDOUT)
  file(READ "${EXPECTED_STDOUT}" expected)
  set(wall_clock "[^\n]*real wall clock[^\n]*\n")
  string(REGEX REPLACE "${wall_clock}" "" actual "${actual}")
  string(REGEX REPLACE "${wall_clock}" "" expected "${expected}")
  if(NOT "${actual}" STREQUAL "${expected}")
    message(FATAL_ERROR "stdout differs from ${EXPECTED_STDOUT}\n"
                        "--- expected\n${expected}--- actual\n${actual}")
  endif()
endif()
if(DEFINED OUTPUT_FILE)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files "${OUTPUT_FILE}" "${EXPECTED_FILE}"
                  RESULT_VARIABLE differs)
  if(differs)
    message(FATAL_ERROR "${OUTPUT_FILE} differs from ${EXPECTED_FILE}")
  endif()
endif()
