# Run one figure harness and compare its stdout byte for byte with a
# golden file:
#
#   cmake -DHARNESS=<binary> -DGOLDEN=<file> -P compare_figure.cmake
#
# With SPRINTCON_GOLDEN_UPDATE set in the environment the golden is
# rewritten from the harness output instead (scripts/update_golden.py
# --figure NAME), unless -DNO_UPDATE=ON marks the golden as a fixture.
# A mismatch names the first differing line.
cmake_minimum_required(VERSION 3.16)

foreach(var HARNESS GOLDEN)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "compare_figure.cmake: -D${var}=... is required")
  endif()
endforeach()

execute_process(COMMAND "${HARNESS}"
  OUTPUT_VARIABLE actual
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${HARNESS} exited with ${rc}")
endif()

if(DEFINED ENV{SPRINTCON_GOLDEN_UPDATE} AND NOT NO_UPDATE)
  file(WRITE "${GOLDEN}" "${actual}")
  message(STATUS "wrote ${GOLDEN}")
  return()
endif()

if(NOT EXISTS "${GOLDEN}")
  message(FATAL_ERROR "no golden ${GOLDEN}; run scripts/update_golden.py "
    "--figure NAME")
endif()
file(READ "${GOLDEN}" expected)
if(actual STREQUAL expected)
  return()
endif()

# Walk both texts line by line to report the first difference.
set(line 1)
while(TRUE)
  string(FIND "${expected}" "\n" ie)
  string(FIND "${actual}" "\n" ia)
  if(ie EQUAL -1 OR ia EQUAL -1)
    set(want "${expected}")
    set(got "${actual}")
    break()
  endif()
  string(SUBSTRING "${expected}" 0 ${ie} want)
  string(SUBSTRING "${actual}" 0 ${ia} got)
  if(NOT want STREQUAL got)
    break()
  endif()
  math(EXPR ie "${ie} + 1")
  math(EXPR ia "${ia} + 1")
  string(SUBSTRING "${expected}" ${ie} -1 expected)
  string(SUBSTRING "${actual}" ${ia} -1 actual)
  math(EXPR line "${line} + 1")
endwhile()
message(FATAL_ERROR "figure output differs from golden at line ${line}\n"
  "  golden: ${want}\n"
  "  actual: ${got}")
