package main

// metricDecl declares one metric: BENCHMARK.json lists exactly these, and
// a test keeps the two in step.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// endToEndDecls are the metrics a user of the system would see. Every
// workload reports every one of them from its untraced run; times are at
// reference speed (see speed.go). The bound is the share of the parent's
// median by which the metric may worsen.
var endToEndDecls = []metricDecl{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.2},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "op_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "goodput_ops", Unit: "1/s", Better: "higher", Bound: 0.25},
}

// perLayer are the metrics of single layers, named <layer>.<metric> after
// the module that does the work. They come from the traced run, have no
// bound, and read 0 on a workload where the layer does nothing.
var perLayer = []metricDecl{
	// Domains, rng and core: fixed loops over a replayed game.
	{Name: "morpion.legal_ns", Unit: "ns", Better: "lower"},
	{Name: "morpion.play_undo_ns", Unit: "ns", Better: "lower"},
	{Name: "morpion.clone_ns", Unit: "ns", Better: "lower"},
	{Name: "morpion.copyfrom_ns", Unit: "ns", Better: "lower"},
	{Name: "samegame.legal_ns", Unit: "ns", Better: "lower"},
	{Name: "samegame.play_undo_ns", Unit: "ns", Better: "lower"},
	{Name: "samegame.clone_ns", Unit: "ns", Better: "lower"},
	{Name: "samegame.copyfrom_ns", Unit: "ns", Better: "lower"},
	{Name: "sudoku.legal_ns", Unit: "ns", Better: "lower"},
	{Name: "sudoku.play_undo_ns", Unit: "ns", Better: "lower"},
	{Name: "sudoku.clone_ns", Unit: "ns", Better: "lower"},
	{Name: "sudoku.copyfrom_ns", Unit: "ns", Better: "lower"},
	{Name: "rng.draw_ns", Unit: "ns", Better: "lower"},
	{Name: "core.sample_us.morpion", Unit: "us", Better: "lower"},
	{Name: "core.sample_us.samegame", Unit: "us", Better: "lower"},
	{Name: "core.sample_us.sudoku", Unit: "us", Better: "lower"},
	{Name: "core.steps_per_s.morpion", Unit: "1/s", Better: "higher"},
	{Name: "core.steps_per_s.samegame", Unit: "1/s", Better: "higher"},
	{Name: "core.steps_per_s.sudoku", Unit: "1/s", Better: "higher"},
	{Name: "core.allocs_per_playout", Unit: "count", Better: "lower"},
	{Name: "core.nested1_undo_ms.morpion", Unit: "ms", Better: "lower"},
	{Name: "core.nested1_undo_ms.samegame", Unit: "ms", Better: "lower"},
	{Name: "core.nested1_undo_ms.sudoku", Unit: "ms", Better: "lower"},
	{Name: "core.nested1_clone_ms.morpion", Unit: "ms", Better: "lower"},
	{Name: "core.nested1_clone_ms.samegame", Unit: "ms", Better: "lower"},
	{Name: "core.nested1_clone_ms.sudoku", Unit: "ms", Better: "lower"},
	{Name: "core.playouts", Unit: "count", Better: "lower"},
	{Name: "core.steps", Unit: "count", Better: "lower"},

	// The pool engine and its in-process transport.
	{Name: "parallel.rollouts", Unit: "count", Better: "lower"},
	{Name: "parallel.work_units", Unit: "count", Better: "lower"},
	{Name: "parallel.rollouts_per_s", Unit: "1/s", Better: "higher"},
	{Name: "parallel.overhead_us_per_rollout", Unit: "us", Better: "lower"},
	{Name: "parallel.allocs_per_rollout", Unit: "count", Better: "lower"},
	{Name: "parallel.median_idle_frac", Unit: "ratio", Better: "lower"},
	{Name: "parallel.client_idle_frac", Unit: "ratio", Better: "lower"},
	{Name: "parallel.queue_depth_mean", Unit: "count", Better: "lower"},
	{Name: "parallel.step_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "parallel.step_ms_max", Unit: "ms", Better: "lower"},
	{Name: "parallel.spec_waste_ratio", Unit: "ratio", Better: "lower"},
	{Name: "parallel.par_eff", Unit: "ratio", Better: "higher"},
	{Name: "mpi.wall.rtt_ns", Unit: "ns", Better: "lower"},

	// The per-run engine on the simulated cluster. The vsec_* and
	// vspeedup figures are exact counts of simulated time.
	{Name: "parallel.virtual.vsec_c1_lm", Unit: "s", Better: "lower"},
	{Name: "parallel.virtual.vsec_c16_lm", Unit: "s", Better: "lower"},
	{Name: "parallel.virtual.vsec_c64_rr", Unit: "s", Better: "lower"},
	{Name: "parallel.virtual.vsec_c64_lm", Unit: "s", Better: "lower"},
	{Name: "parallel.virtual.vsec_c64_slow_static", Unit: "s", Better: "lower"},
	{Name: "parallel.virtual.vsec_c64_slow_pull", Unit: "s", Better: "lower"},
	{Name: "parallel.virtual.vspeedup", Unit: "ratio", Better: "higher"},
	{Name: "parallel.virtual.client_idle_frac_c64", Unit: "ratio", Better: "lower"},
	{Name: "parallel.virtual.median_idle_frac_c64", Unit: "ratio", Better: "lower"},
	{Name: "parallel.virtual.vsec_pull_over_static", Unit: "ratio", Better: "lower"},
	{Name: "vtime.handoff_ns", Unit: "ns", Better: "lower"},
	{Name: "mpi.virtual.msg_ns", Unit: "ns", Better: "lower"},

	// Admission, queueing and notification.
	{Name: "service.submit_us_p50", Unit: "us", Better: "lower"},
	{Name: "service.queue_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "service.queue_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "service.run_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "service.run_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "service.notify_us_p50", Unit: "us", Better: "lower"},
	{Name: "service.shed_saturated", Unit: "count", Better: "lower"},
	{Name: "service.span_sum_err_p90", Unit: "ratio", Better: "lower"},
	{Name: "router.submit_us_p50", Unit: "us", Better: "lower"},
	{Name: "router.shed_quota", Unit: "count", Better: "lower"},
	{Name: "router.pool_balance", Unit: "ratio", Better: "higher"},

	// The transposition cache.
	{Name: "cache.get_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.get_miss_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.put_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cache.evictions", Unit: "count", Better: "lower"},
	{Name: "cache.bytes", Unit: "count", Better: "lower"},
	{Name: "cache.read_job_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "cache.write_job_ms_p50", Unit: "ms", Better: "lower"},

	// Codec and the TCP transport.
	{Name: "codec.encode_ns.morpion", Unit: "ns", Better: "lower"},
	{Name: "codec.encode_ns.samegame", Unit: "ns", Better: "lower"},
	{Name: "codec.encode_ns.sudoku", Unit: "ns", Better: "lower"},
	{Name: "codec.decode_ns.morpion", Unit: "ns", Better: "lower"},
	{Name: "codec.decode_ns.samegame", Unit: "ns", Better: "lower"},
	{Name: "codec.decode_ns.sudoku", Unit: "ns", Better: "lower"},
	{Name: "codec.state_bytes.morpion", Unit: "count", Better: "lower"},
	{Name: "codec.state_bytes.samegame", Unit: "count", Better: "lower"},
	{Name: "codec.state_bytes.sudoku", Unit: "count", Better: "lower"},
	{Name: "codec.frame_ns", Unit: "ns", Better: "lower"},
	{Name: "mpi.net.rtt_us", Unit: "us", Better: "lower"},
	{Name: "mpi.net.frames", Unit: "count", Better: "lower"},
	{Name: "mpi.net.bytes", Unit: "count", Better: "lower"},
	{Name: "mpi.net.bytes_per_frame", Unit: "count", Better: "lower"},
	{Name: "mpi.net.frames_per_rollout", Unit: "count", Better: "lower"},
	{Name: "mpi.net.codec_share", Unit: "ratio", Better: "lower"},

	// Validity of the run itself.
	{Name: "gen.lateness_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "gen.sent", Unit: "count", Better: "higher"},
	{Name: "proc.speed_factor", Unit: "ratio", Better: "higher"},
	{Name: "proc.rss_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "proc.gc_cpu_frac", Unit: "ratio", Better: "lower"},
	{Name: "proc.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "proc.goroutines_end", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
}

// unitOf finds a metric's declared unit.
func unitOf(name string) string { return declOf(name).Unit }
