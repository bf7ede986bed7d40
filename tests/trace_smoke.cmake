# Observability smoke: a lossy sim run with --trace-perfetto must emit a
# Perfetto-loadable trace_event document, `decor trace report` must parse
# the raw trace JSONL (and refuse the Perfetto export with a one-line
# error: JSONL is the source of truth), its report on the committed golden
# trace must match the pinned expectation byte for byte, and an
# unopenable --trace-jsonl sink must fail the run with a nonzero exit (not
# a silent empty artifact).
#
# Invoked by ctest as:
#   cmake -DBIN=<decor_cli> -DOUT=<scratch dir> -DGOLDEN=<tests/golden>
#         -P trace_smoke.cmake
if(NOT DEFINED BIN OR NOT DEFINED OUT OR NOT DEFINED GOLDEN)
  message(FATAL_ERROR "trace_smoke.cmake needs -DBIN=, -DOUT= and -DGOLDEN=")
endif()

set(perfetto ${OUT}/trace_smoke.perfetto.json)
set(jsonl ${OUT}/trace_smoke.trace.jsonl)
set(timeline ${OUT}/trace_smoke.timeline.jsonl)
file(MAKE_DIRECTORY ${OUT})
file(REMOVE ${perfetto} ${jsonl} ${timeline})

execute_process(
  COMMAND ${BIN} sim --scheme=grid --side=20 --points=200 --initial=8
          --k=1 --loss=0.3 --seed=7 --trace-perfetto=${perfetto}
          --trace-jsonl=${jsonl} --timeline=1 --timeline-jsonl=${timeline}
  RESULT_VARIABLE rc
  OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "decor_cli sim --trace-perfetto failed (rc=${rc})")
endif()

foreach(artifact ${perfetto} ${jsonl} ${timeline})
  if(NOT EXISTS ${artifact})
    message(FATAL_ERROR "decor_cli did not write ${artifact}")
  endif()
endforeach()

# The Perfetto document must be non-empty trace_event JSON with real spans.
file(READ ${perfetto} doc)
foreach(needle "\"traceEvents\"" "\"ph\":\"b\"" "\"ph\":\"e\""
        "process_name" "\"id2\"")
  string(FIND "${doc}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "${perfetto} is missing ${needle}")
  endif()
endforeach()

# The JSONL stream must carry seq/trace fields on every record line.
file(READ ${jsonl} stream)
string(FIND "${stream}" "\"seq\":" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "${jsonl} has no seq-stamped records")
endif()

# `trace report` must reconstruct the run from the JSONL dump alone.
execute_process(
  COMMAND ${BIN} trace report ${jsonl}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE report)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "decor_cli trace report ${jsonl} failed (rc=${rc})")
endif()
foreach(needle "records:" "retransmits:")
  string(FIND "${report}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "trace report on ${jsonl} is missing '${needle}'")
  endif()
endforeach()

# The Perfetto export is output only: reading it back is a clean error
# that names the expected input.
execute_process(
  COMMAND ${BIN} trace report ${perfetto}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE report
  ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "trace report must refuse a Perfetto export")
endif()
string(FIND "${err}" "is a Perfetto export; decor trace report reads trace JSONL"
       pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "trace report on a Perfetto export printed: ${err}")
endif()

# The report on the committed golden trace is pinned byte for byte (the
# expectation was generated before the trace reader became a typed index).
execute_process(
  COMMAND ${BIN} trace report trace.jsonl
  WORKING_DIRECTORY ${GOLDEN}/explain_run
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE report)
file(READ ${GOLDEN}/explain_run/expected_trace_report.txt expected)
if(NOT rc EQUAL 0 OR NOT report STREQUAL expected)
  message(FATAL_ERROR "trace report on the golden trace (rc=${rc}) differs "
                      "from expected_trace_report.txt:\n${report}")
endif()

# A truncated tail (crash mid-write) must be skipped and counted, never
# fatal: append a garbled line and expect a clean report that says so.
set(damaged ${OUT}/trace_smoke.damaged.jsonl)
file(READ ${jsonl} stream)
file(WRITE ${damaged} "${stream}{\"seq\":999999,\"t\":1.5,\"kind\"")
execute_process(
  COMMAND ${BIN} trace report ${damaged}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE report)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "trace report must survive a malformed line "
                      "(rc=${rc})")
endif()
string(FIND "${report}" "malformed lines skipped: 1" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "trace report did not count the malformed line")
endif()

# An unopenable sink is an error, not a silently traceless run.
execute_process(
  COMMAND ${BIN} sim --scheme=grid --side=20 --points=200 --initial=8
          --k=1 --trace-jsonl=${OUT}/no-such-dir/x.jsonl
  RESULT_VARIABLE rc
  OUTPUT_QUIET ERROR_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "sim with unopenable --trace-jsonl must exit nonzero")
endif()
