# The substrate micro-benchmark set, defined once: scripts/bench.sh
# snapshots it, scripts/bench_compare.sh gates it, and CI runs it once.
# Source this file; it sets bench_pattern (the -bench regexp, overridable
# through BENCH_PATTERN) and bench_pkgs (the packages that hold the set).
bench_pattern=${BENCH_PATTERN:-'^(BenchmarkSimQueue|BenchmarkMaxMinRates|BenchmarkSimnetFairShare|BenchmarkColdStartSimulation|BenchmarkWarmInferenceSimulation|BenchmarkServingThousandRequests|BenchmarkServingThousandRequestsMonitored|BenchmarkHistogramRecord|BenchmarkProfileBERTBase|BenchmarkPlanAlgorithm1|BenchmarkClusterSixteenNodes|BenchmarkClusterHundredNodes|BenchmarkZooCacheEvictingAdmit|BenchmarkForecastObserve|BenchmarkSimArrivals)$'}
bench_pkgs=(. ./internal/sim)
