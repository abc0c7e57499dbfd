package obs

// Pre-bundled handle sets for the solver stack. internal/mip and
// internal/lp accept these via their options/workspace structs and feed
// them with a handful of atomic adds per solve -- never per pivot, so the
// instrumented simplex loop is byte-identical to the bare one. The solver
// label separates the scheduler's flow ILP from the clusterer's set cover.

// SolverMetrics is the counter set one MIP consumer (scheduling or
// clustering) feeds. A nil *SolverMetrics disables recording.
type SolverMetrics struct {
	Solves    *Counter // branch-and-bound searches run
	Nodes     *Counter // B&B nodes explored
	Iters     *Counter // simplex iterations across all nodes
	Truncated *Counter // searches stopped by a time/node/iteration limit
	PivotNS   *Counter // nanoseconds spent inside LP solves
	LP        *LPMetrics

	// Warm-start pipeline counters (eagleeye_warmstart_*). Attempts /
	// Accepted / Rejected track candidate verification in the MIP layer;
	// WarmPruned counts the node savings attributable to the warm
	// candidate; Projections / ProjectionHits track the sched layer's
	// cross-frame schedule projection; BasisReuses counts LP solves that
	// skipped phase 1 by re-installing a previous basis.
	WarmAttempts   *Counter
	WarmAccepted   *Counter
	WarmRejected   *Counter
	WarmPruned     *Counter
	Projections    *Counter
	ProjectionHits *Counter
	BasisReuses    *Counter
}

// LPMetrics counts the underlying simplex workspace's activity. The
// core/factorization fields may be nil (older consumers); the lp package
// nil-checks them individually.
type LPMetrics struct {
	Solves      *Counter // simplex solves (one per B&B node relaxation)
	Iters       *Counter // pivots performed
	IterLimited *Counter // solves abandoned at the iteration limit

	// Engine split and sparse-core factorization activity.
	DenseSolves      *Counter // solves run on the dense tableau core
	SparseSolves     *Counter // solves run on the sparse revised simplex
	Factorizations   *Counter // sparse basis factorizations (all causes)
	Refactorizations *Counter // factorizations forced mid-solve (eta budget / stability)
	FillIn           *Counter // eta-file entries beyond the basis's own nonzeros
	InstanceNNZ      *Gauge   // high-water structural nonzeros of one solved instance
	PartialPricing   *Counter // sparse solves that priced at least one pivot through a partial window
}

// NewSolverMetrics registers the eagleeye_mip_* and eagleeye_lp_* series
// for one solver consumer ("sched" or "cluster").
func NewSolverMetrics(r *Registry, solver string) *SolverMetrics {
	lbl := Label{Key: "solver", Value: solver}
	return &SolverMetrics{
		Solves:    r.Counter("eagleeye_mip_solves_total", "Branch-and-bound searches run.", lbl),
		Nodes:     r.Counter("eagleeye_mip_nodes_total", "Branch-and-bound nodes explored.", lbl),
		Iters:     r.Counter("eagleeye_mip_lp_iters_total", "Simplex iterations across all B&B nodes.", lbl),
		Truncated: r.Counter("eagleeye_mip_truncated_total", "Searches stopped early by a time, node or iteration limit.", lbl),
		PivotNS:   r.Counter("eagleeye_mip_pivot_nanoseconds_total", "Wall time inside LP solves, in nanoseconds.", lbl),
		LP: &LPMetrics{
			Solves:           r.Counter("eagleeye_lp_solves_total", "Simplex solves (node relaxations).", lbl),
			Iters:            r.Counter("eagleeye_lp_iters_total", "Simplex pivots performed.", lbl),
			IterLimited:      r.Counter("eagleeye_lp_iter_limited_total", "Simplex solves abandoned at the iteration limit.", lbl),
			DenseSolves:      r.Counter("eagleeye_lp_core_solves_total", "Simplex solves on the dense tableau core.", lbl, Label{Key: "core", Value: "dense"}),
			SparseSolves:     r.Counter("eagleeye_lp_core_solves_total", "Simplex solves on the sparse revised simplex core.", lbl, Label{Key: "core", Value: "sparse"}),
			Factorizations:   r.Counter("eagleeye_lp_factorizations_total", "Sparse-core basis factorizations.", lbl),
			Refactorizations: r.Counter("eagleeye_lp_refactorizations_total", "Sparse-core factorizations forced mid-solve by the eta budget or a stability alarm.", lbl),
			FillIn:           r.Counter("eagleeye_lp_factor_fill_in_total", "Eta-file entries created beyond the basis's own nonzeros.", lbl),
			InstanceNNZ:      r.Gauge("eagleeye_lp_instance_nnz_max", "Largest structural nonzero count among solved LP instances.", lbl),
			PartialPricing:   r.Counter("eagleeye_lp_partial_pricing_solves_total", "Sparse simplex solves that priced at least one pivot through a partial window.", lbl),
		},
		WarmAttempts:   r.Counter("eagleeye_warmstart_attempts_total", "Warm-start candidates offered to the MIP solver.", lbl),
		WarmAccepted:   r.Counter("eagleeye_warmstart_accepted_total", "Warm-start candidates that verified feasible.", lbl),
		WarmRejected:   r.Counter("eagleeye_warmstart_rejected_total", "Warm-start candidates that failed verification.", lbl),
		WarmPruned:     r.Counter("eagleeye_warmstart_pruned_nodes_total", "B&B nodes pruned by the warm-start bound before any incumbent was found.", lbl),
		Projections:    r.Counter("eagleeye_warmstart_projections_total", "Cross-frame solution projections attempted.", lbl),
		ProjectionHits: r.Counter("eagleeye_warmstart_projection_hits_total", "Cross-frame projections that produced the warm candidate.", lbl),
		BasisReuses:    r.Counter("eagleeye_warmstart_basis_reuses_total", "LP solves that skipped phase 1 via a re-installed basis.", lbl),
	}
}
