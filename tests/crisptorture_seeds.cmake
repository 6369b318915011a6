# Run crisptorture on each generator seed in SEEDS (one seed per run,
# quick config matrix) and require a clean report for every one.
#
#   cmake -DTOOL=<crisptorture> -DSEEDS="<s1>;<s2>;..." -DTIMEOUT_MS=<N> \
#         -P crisptorture_seeds.cmake
#
# Each run carries the tool's per-run watchdog and a process timeout,
# so a cycle-model hang fails the test quickly instead of stalling it.
foreach(seed IN LISTS SEEDS)
    execute_process(
        COMMAND ${TOOL} --seeds=1 --seed0=${seed} --configs=quick
                --timeout-ms=${TIMEOUT_MS}
        RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err
        TIMEOUT 30)
    if(NOT rc EQUAL 0 OR NOT out MATCHES " 0 divergences, .* 0 timeouts")
        message(FATAL_ERROR
                "crisptorture seed ${seed}: exit ${rc}\n${out}${err}")
    endif()
endforeach()
