# audiond's numeric flags: a value that is not a whole number within the
# flag's range prints the usage line and exits 1, before the daemon starts
# serving; in-range values, --port 0 among them, still start it. Every run
# is bounded, so a daemon that serves when it should refuse fails here
# instead of hanging the suite.
#
#   cmake -DAUDIOND=path/to/audiond -P audiond_flags_test.cmake

foreach(case
    "--port 0 --max-connections abc"
    "--port 70000"
    "--port 0 --quota-sound-bytes 18446744073709551616"
    "--port 0 --limit-rps 5x"
    "--port 0 --speakers -1"
    "--port 0 --egress-buffer-bytes 0"
    "--port 0 --drain-ms")
  separate_arguments(args UNIX_COMMAND "${case}")
  execute_process(COMMAND "${AUDIOND}" ${args} TIMEOUT 5
                  RESULT_VARIABLE result OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT result EQUAL 1 OR NOT err MATCHES "usage: audiond")
    message(SEND_ERROR "audiond ${case}: want usage and exit 1, got '${result}'\n${out}${err}")
  endif()
endforeach()

# In-range values, some past what an int holds: the daemon serves until
# the bound stops it.
execute_process(COMMAND "${AUDIOND}" --port 0 --metrics-port 0 --max-connections 20000
                        --quota-sound-bytes 3000000000 --limit-bps 18446744073709551615
                        --trace-sample 4294967295 --drain-ms 0
                TIMEOUT 2 RESULT_VARIABLE result OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT out MATCHES "audiond: serving")
  message(SEND_ERROR "audiond refused in-range values: '${result}'\n${out}${err}")
endif()
