# Fails if the production library defines any symbol of the bit-serial
# oracles (which belong in pimecc_reference) or of the deleted modules.
# The per-module source globs in src/CMakeLists.txt would otherwise let a
# new oracle file ship in libpimecc.a unnoticed.  Registered as a ctest
# entry in tests/CMakeLists.txt:
#
#   cmake -DNM=<nm> -DLIBRARY=<libpimecc.a> -P CheckNoOracleSymbols.cmake
if(NOT NM OR NOT LIBRARY)
  message(FATAL_ERROR "CheckNoOracleSymbols: NM and LIBRARY are required")
endif()

execute_process(
  COMMAND "${NM}" -C --defined-only "${LIBRARY}"
  OUTPUT_VARIABLE symbols
  ERROR_VARIABLE nm_stderr
  RESULT_VARIABLE nm_code)
if(NOT nm_code EQUAL 0)
  message(FATAL_ERROR "nm failed on ${LIBRARY} (${nm_code}):\n${nm_stderr}")
endif()

set(forbidden
  "ReferenceCrossbar" "ReferenceBlockCodec" "ReferencePimMachine"
  "CheckMemory" "ProcessingXbar" "ShifterBank" "rel::reference_"
  "PcController" "MemorySystem" "xbar::Trace[^A-Za-z0-9_]")
set(leaks "")
foreach(pattern IN LISTS forbidden)
  string(REGEX MATCHALL "[^\n]*${pattern}[^\n]*" hits "${symbols}")
  foreach(hit IN LISTS hits)
    string(APPEND leaks "  ${hit}\n")
  endforeach()
endforeach()

if(NOT leaks STREQUAL "")
  message(FATAL_ERROR "${LIBRARY} defines oracle or deleted-module symbols:\n"
                      "${leaks}")
endif()
message(STATUS "${LIBRARY}: no oracle symbols")
