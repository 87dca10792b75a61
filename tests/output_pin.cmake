# Output pin: run one binary and compare the SHA-256 of its stdout with the
# digest recorded for it.
#
#   cmake -DBINARY=<path> -DNAME=<name> -DDIGESTS=<file> -P output_pin.cmake
#
# DIGESTS holds one `<sha256>  <name>` line per pinned binary, the format
# `./build/<name> | sha256sum` prints with `-` replaced by the name; lines
# starting with `#` are comments. The test fails when the binary exits
# non-zero, when NAME has no recorded digest, or when the digests differ;
# the last two print the actual digest.
foreach(var BINARY NAME DIGESTS)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "output_pin.cmake: -D${var}=... is required")
  endif()
endforeach()

# Benches and examples announce every CSV they write to ISOPLAT_RESULTS_DIR,
# which would change the bytes; the pins are recorded without it.
unset(ENV{ISOPLAT_RESULTS_DIR})
execute_process(COMMAND "${BINARY}"
                OUTPUT_VARIABLE out
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${NAME} exited with ${rc}")
endif()
string(SHA256 actual "${out}")

file(STRINGS "${DIGESTS}" lines)
set(expected "")
foreach(line IN LISTS lines)
  if(line MATCHES "^([0-9a-f]+)  (.+)$" AND CMAKE_MATCH_2 STREQUAL NAME)
    set(expected "${CMAKE_MATCH_1}")
  endif()
endforeach()

if(expected STREQUAL "")
  message(FATAL_ERROR
          "${NAME} has no digest in ${DIGESTS}; its output is ${actual}")
endif()
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR
          "${NAME} output changed: sha256 ${actual}, pinned ${expected}")
endif()
