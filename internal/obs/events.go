package obs

// Layer names, used as the Event.Layer field and as the "layer" metric
// label where a metric is shared between data backends.
const (
	LayerMPI     = "mpi"
	LayerFenix   = "fenix"
	LayerKR      = "kr"
	LayerVeloC   = "veloc"
	LayerCore    = "core"
	LayerChaos   = "chaos"
	LayerCluster = "cluster"
)

// Event names. The authoritative documentation — which layer emits each
// event, when, and with which attributes — is OBSERVABILITY.md at the
// repository root; a test cross-checks that every name below appears
// there, and the integration test cross-checks that instrumented runs emit
// only names from this list.
const (
	// mpi: job lifecycle and ULFM failure propagation.
	EvJobLaunch       = "mpi.job_launch"
	EvJobEnd          = "mpi.job_end"
	EvRankExit        = "mpi.rank_exit"
	EvFailureDetected = "mpi.failure_detected"
	EvRevoke          = "mpi.revoke"
	EvShrink          = "mpi.shrink" // rank -1: a Fenix rebuild compacted its communicator
	EvAgree           = "mpi.agree"  // emitted by nothing; kept because bench/ reads the name

	// mpi message log: sender-based logging for localized recovery. A send
	// on the resilient lineage is logged (msg_logged); during recovery,
	// suppressed re-sends, log-served receives, and log-served collectives
	// are replays (msg_replayed, attr kind=send|recv|coll); msg_log_trim
	// marks a garbage-collection pass after the commit watermark advanced.
	EvMsgLogged   = "mpi.msg_logged"
	EvMsgReplayed = "mpi.msg_replayed"
	EvMsgLogTrim  = "mpi.msg_log_trim"

	// cluster: flush-scheduler anomalies. flush_reorder flags the DESIGN
	// §10 deep-skew corner: a virtually-earlier superseding submission
	// arrived after a virtually-later same-node observer had already
	// forced commitment of the version it would have replaced.
	EvFlushReorder = "cluster.flush_reorder"

	// fenix: process-resilience lifecycle.
	EvFenixInit        = "fenix.init"
	EvFenixRebuild     = "fenix.rebuild"
	EvFenixRoleChange  = "fenix.role_change"
	EvFenixIMRExchange = "fenix.imr_exchange"
	EvFenixIMRRestore  = "fenix.imr_restore"

	// kr: control-flow checkpoint regions.
	EvKRInit            = "kr.init"
	EvKRRecoveryArmed   = "kr.recovery_armed"
	EvKRReset           = "kr.reset"
	EvKRCheckpointBegin = "kr.checkpoint_begin"
	EvKRCheckpointEnd   = "kr.checkpoint_commit"
	EvKRRestoreBegin    = "kr.restore_begin"
	EvKRRestoreEnd      = "kr.restore_commit"
	// EvKRCheckpointRejected marks a checkpoint version discarded before
	// commit: the blob failed the KR codec checksum (stage=codec) or the
	// data backend's integrity verification (stage=backend). The previous
	// good version stays latest.
	EvKRCheckpointRejected = "kr.checkpoint_rejected"

	// veloc: data layer (scratch copy + asynchronous flush).
	EvVeloCInit           = "veloc.init"
	EvVeloCCheckpoint     = "veloc.checkpoint"
	EvVeloCFlushBegin     = "veloc.flush_begin"
	EvVeloCFlushQueued    = "veloc.flush_queued"
	EvVeloCFlushStart     = "veloc.flush_start"
	EvVeloCFlushEnd       = "veloc.flush_end"
	EvVeloCFlushDiscarded = "veloc.flush_discarded"
	EvVeloCRestart        = "veloc.restart"

	// core: integrated-session lifecycle.
	EvSessionStart    = "core.session_start"
	EvFailureInjected = "core.failure_injected"
	EvRecomputeBegin  = "core.recompute_begin"
	EvRecomputeEnd    = "core.recompute_end"

	// chaos: adversarial fault injection (internal/chaos).
	EvChaosKill = "chaos.kill"

	// chaos SDC: silent-data-corruption lifecycle. Injection is chaos's
	// doing; detection/correction/escape are emitted by whichever layer
	// resolved the flip (the kokkos resilient region or the VeloC blob
	// verifier), all under the chaos taxonomy so one invariant —
	// sdc_injected == sdc_detected + sdc_escaped — reads off the stream.
	EvSDCInjected  = "chaos.sdc_injected"
	EvSDCDetected  = "chaos.sdc_detected"
	EvSDCCorrected = "chaos.sdc_corrected"
	EvSDCEscaped   = "chaos.sdc_escaped"
)

// EventNames returns every defined event name, the machine-readable form
// of the taxonomy in OBSERVABILITY.md.
func EventNames() []string {
	return []string{
		EvJobLaunch, EvJobEnd, EvRankExit, EvFailureDetected, EvRevoke, EvShrink, EvAgree,
		EvMsgLogged, EvMsgReplayed, EvMsgLogTrim, EvFlushReorder,
		EvFenixInit, EvFenixRebuild, EvFenixRoleChange, EvFenixIMRExchange, EvFenixIMRRestore,
		EvKRInit, EvKRRecoveryArmed, EvKRReset, EvKRCheckpointBegin, EvKRCheckpointEnd,
		EvKRRestoreBegin, EvKRRestoreEnd, EvKRCheckpointRejected,
		EvVeloCInit, EvVeloCCheckpoint, EvVeloCFlushBegin, EvVeloCFlushQueued,
		EvVeloCFlushStart, EvVeloCFlushEnd, EvVeloCFlushDiscarded, EvVeloCRestart,
		EvSessionStart, EvFailureInjected, EvRecomputeBegin, EvRecomputeEnd,
		EvChaosKill,
		EvSDCInjected, EvSDCDetected, EvSDCCorrected, EvSDCEscaped,
	}
}

// Metric names recorded by the built-in instrumentation (the metrics
// catalogue in OBSERVABILITY.md). Metrics shared between data layers carry
// a layer label (veloc or imr).
const (
	MJobLaunches      = "job_launches_total"
	MFailuresInjected = "failures_injected_total"
	MFailuresDetected = "failures_detected_total"
	MFailuresSurvived = "failures_survived_total"
	MRevokes          = "mpi_revokes_total"
	MShrinks          = "mpi_shrinks_total"
	MAgreements       = "mpi_agreements_total" // incremented by nothing; kept because bench/ reads it

	MMsgLogged     = "mpi_msgs_logged_total"
	MMsgReplayed   = "mpi_msgs_replayed_total"
	MMsgLogTrimmed = "mpi_msg_log_trimmed_total"
	MMsgLogEntries = "mpi_msg_log_entries" // gauge: live log entries (p2p + collective)
	MMsgLogBytes   = "mpi_msg_log_bytes"   // gauge: sim payload bytes held by the log
	MReplaySeconds = "mpi_replay_seconds"  // histogram: virtual time from recovery re-entry to first live iteration
	MFlushReorders = "cluster_flush_reorders_total"

	MRebuilds        = "fenix_rebuilds_total"
	MSparesActivated = "fenix_spares_activated_total"
	MRehosts         = "fenix_rehosts_total"

	MCheckpoints           = "checkpoints_total"       // label: layer
	MCheckpointBytes       = "checkpoint_bytes_total"  // label: layer
	MCheckpointSyncSeconds = "checkpoint_sync_seconds" // histogram; label: layer
	MRestores              = "restores_total"          // label: layer
	MRestoreBytes          = "restore_bytes_total"     // label: layer
	MRestoreSeconds        = "restore_seconds"         // histogram; label: layer
	MKRRegions             = "kr_regions_total"

	MFlushes               = "veloc_flushes_total"
	MFlushSeconds          = "veloc_flush_seconds"            // histogram
	MFlushQueueDepth       = "veloc_flush_queue_depth"        // gauge, sampled at flush submit, completion, and discard
	MFlushCoalesced        = "veloc_flush_coalesced_total"    // scheduler: superseded versions cancelled
	MFlushDiscarded        = "veloc_flush_discarded_total"    // scheduler: queued flushes lost with their node (crash / scratch loss)
	MFlushWaitSeconds      = "veloc_flush_wait_seconds"       // counter: MPI-visible flush wait (congestion inflation + restore stalls)
	MFlushQueueWaitSeconds = "veloc_flush_queue_wait_seconds" // histogram: scheduler queue wait per flush

	MRecomputeIters = "recompute_iterations_total"

	MSDCInjected  = "sdc_injected_total"
	MSDCDetected  = "sdc_detected_total"
	MSDCCorrected = "sdc_corrected_total"
	MSDCEscaped   = "sdc_escaped_total"
	MSDCReplays   = "sdc_replays_total" // extra region executions forced by a rejecting validator
	MSDCVotes     = "sdc_votes_total"   // duplicate executions compared in vote mode
)

// MetricNames returns every metric name the built-in instrumentation may
// record.
func MetricNames() []string {
	return []string{
		MJobLaunches, MFailuresInjected, MFailuresDetected, MFailuresSurvived,
		MRevokes, MShrinks, MAgreements,
		MMsgLogged, MMsgReplayed, MMsgLogTrimmed, MMsgLogEntries, MMsgLogBytes,
		MReplaySeconds, MFlushReorders,
		MRebuilds, MSparesActivated, MRehosts,
		MCheckpoints, MCheckpointBytes, MCheckpointSyncSeconds,
		MRestores, MRestoreBytes, MRestoreSeconds, MKRRegions,
		MFlushes, MFlushSeconds, MFlushQueueDepth,
		MFlushCoalesced, MFlushDiscarded, MFlushWaitSeconds, MFlushQueueWaitSeconds,
		MRecomputeIters,
		MSDCInjected, MSDCDetected, MSDCCorrected, MSDCEscaped, MSDCReplays, MSDCVotes,
	}
}
