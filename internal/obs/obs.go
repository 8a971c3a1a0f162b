// Package obs is Riveter's stdlib-only observability layer: counters,
// gauges, and fixed-bucket histograms behind a lock-cheap Registry, plus a
// per-query Trace of structured events covering the whole suspend/resume
// life cycle (pipeline start/finish, breaker reached, suspension request
// and acknowledgement, checkpoint serialize/write, restore, and the cost
// model's strategy decision with the inputs that produced it).
//
// Everything is nil-safe: a nil *Registry, *Trace, Counter, Gauge, or
// Histogram accepts recordings and drops them, so instrumented code paths
// need no "is observability on?" branches. Hot-path instrumentation is
// allocation-free: metric handles are resolved once (at executor
// construction), observations are single atomic operations, and histogram
// buckets are preallocated.
//
// Metric names map onto the paper's measured quantities (see DESIGN.md
// "Observability"):
//
//	suspend.latency.{pipeline,process}   — L_s  (checkpoint persist wall time)
//	resume.latency.{pipeline,process}    — L_r  (checkpoint restore wall time)
//	checkpoint.bytes.{pipeline,process}  — persisted checkpoint size
//	checkpoint.state_bytes               — serialized operator state (no padding)
//	engine.pipeline.duration             — per-pipeline execution time
//	engine.morsels / engine.processed_bytes — execution progress counters
//	riveter.decision.{redo,pipeline,process} — Algorithm 1 outcomes
package obs

// Context bundles the two observability handles instrumented code paths
// accept. The zero value disables both; either field may be set alone.
type Context struct {
	// Metrics receives counters, gauges, and histogram observations.
	Metrics *Registry
	// Trace receives structured per-query events.
	Trace *Trace
}

// Canonical metric names. Suspend/resume/checkpoint metrics append a
// ".<kind>" suffix ("pipeline" or "process") via the Kinded helper.
const (
	// MetricSuspendLatency histograms L_s per strategy kind (nanoseconds).
	MetricSuspendLatency = "suspend.latency"
	// MetricResumeLatency histograms L_r per strategy kind (nanoseconds).
	MetricResumeLatency = "resume.latency"
	// MetricCheckpointBytes histograms the persisted checkpoint size
	// (state + process-image padding) per strategy kind.
	MetricCheckpointBytes = "checkpoint.bytes"
	// MetricCheckpointStateBytes histograms the serialized operator state
	// alone, the S^ppl the cost model reasons about.
	MetricCheckpointStateBytes = "checkpoint.state_bytes"
	// MetricCheckpointSerialize histograms state-serialization wall time.
	MetricCheckpointSerialize = "checkpoint.serialize.duration"
	// MetricCheckpointWrite histograms write+fsync wall time.
	MetricCheckpointWrite = "checkpoint.write.duration"
	// MetricCheckpointRetry counts checkpoint write attempts that failed
	// and were retried with backoff.
	MetricCheckpointRetry = "checkpoint.retry"
	// MetricCheckpointFallback counts persists that degraded to a cheaper
	// strategy (process-level image abandoned for a pipeline-level state)
	// after the requested kind could not be written.
	MetricCheckpointFallback = "checkpoint.fallback"
	// MetricCheckpointQuarantined counts torn or corrupt checkpoint files
	// renamed aside (.corrupt) instead of crashing a restore.
	MetricCheckpointQuarantined = "checkpoint.quarantined"

	// MetricPipelineDuration histograms per-pipeline execution time.
	MetricPipelineDuration = "engine.pipeline.duration"
	// MetricMorsels counts morsels executed across all workers.
	MetricMorsels = "engine.morsels"
	// MetricProcessedBytes counts bytes flowing through workers.
	MetricProcessedBytes = "engine.processed_bytes"
	// MetricPipelinesDone counts finalized pipelines.
	MetricPipelinesDone = "engine.pipelines_done"
	// MetricBreakers counts pipeline breakers crossed with a hook attached.
	MetricBreakers = "engine.breakers"
	// MetricSuspends counts acknowledged suspensions per kind.
	MetricSuspends = "engine.suspends"
	// MetricLiveStateBytes gauges the live operator state at the last
	// pipeline boundary.
	MetricLiveStateBytes = "engine.live_state_bytes"
	// MetricRunningPipelines gauges how many pipelines the DAG scheduler has
	// in flight at once.
	MetricRunningPipelines = "engine.running_pipelines"

	// MetricDecisions counts cost-model decisions per chosen strategy.
	MetricDecisions = "riveter.decision"
	// MetricDecisionTime histograms the cost model's own running time
	// (the paper's Table V selection time).
	MetricDecisionTime = "riveter.decision.duration"

	// MetricServerQueueDepth gauges the number of sessions waiting for a
	// worker slot.
	MetricServerQueueDepth = "server.queue.depth"
	// MetricServerWait histograms queue wait time: submission (or
	// re-enqueue after a preemption) to dispatch.
	MetricServerWait = "server.wait.duration"
	// MetricServerPreemptions counts suspension-based preemptions.
	MetricServerPreemptions = "server.preemptions"
	// MetricServerAdmit counts admission outcomes per verdict via Kinded:
	// "server.admit.{run,queue,reject}".
	MetricServerAdmit = "server.admit"
	// MetricServerSessions counts finished sessions per terminal state via
	// Kinded: "server.sessions.{done,failed}".
	MetricServerSessions = "server.sessions"
	// MetricServerSessionDuration histograms submission-to-completion
	// latency of successful sessions.
	MetricServerSessionDuration = "server.session.duration"
	// MetricServerPreemptAbandoned counts idle parks abandoned because no
	// resume point could be persisted at any level: the session was held
	// and re-queued instead of parked, and continues in place with its work
	// preserved. A preemption is held in memory and never abandoned.
	MetricServerPreemptAbandoned = "server.preempt_abandoned"

	// MetricCheckpointSweepFailed counts startup-sweep entries (orphaned
	// .tmp files) that could not be removed and were reported instead of
	// silently skipped.
	MetricCheckpointSweepFailed = "checkpoint.sweep_failed"

	// MetricBlobPut counts chunks actually uploaded to the blob store
	// (dedup hits are counted separately, not here).
	MetricBlobPut = "blobstore.put"
	// MetricBlobGet counts chunks downloaded from the blob store.
	MetricBlobGet = "blobstore.get"
	// MetricBlobDedupHit counts chunks a checkpoint write skipped because an
	// identical chunk (same content digest) was already stored, or occurred
	// earlier in the same image.
	MetricBlobDedupHit = "blobstore.dedup_hit"
	// MetricBlobBytesUploaded counts compressed bytes actually uploaded;
	// with dedup this is the delta, not the full state size.
	MetricBlobBytesUploaded = "blobstore.bytes_uploaded"
	// MetricBlobBytesDownloaded counts compressed bytes downloaded on
	// restores and verifies.
	MetricBlobBytesDownloaded = "blobstore.bytes_downloaded"
	// MetricBlobGCChunks / MetricBlobGCClaims count entries the blob-store
	// garbage collector removed (unreferenced chunks, orphaned claims);
	// MetricBlobGCFailed counts entries it could not remove.
	MetricBlobGCChunks = "blobstore.gc.chunks_removed"
	MetricBlobGCClaims = "blobstore.gc.claims_removed"
	MetricBlobGCFailed = "blobstore.gc.failed"
	// MetricServerMigrated counts sessions this instance claimed from
	// another instance's state document in the shared store.
	MetricServerMigrated = "server.migrated"

	// Write-ahead lineage log metrics. Appends counts records written into
	// the log (the meta record, one breaker-state record per breaker, and
	// the seal record); LogBytes counts bytes appended; Seals counts
	// flush+fsync boundaries (the log's creation, every breaker, and the
	// final seal a lineage suspension performs); TornTruncated
	// counts torn tail records detected and logically truncated at replay
	// time — they are never replayed.
	MetricLineageAppends       = "lineage.appends"
	MetricLineageLogBytes      = "lineage.log_bytes"
	MetricLineageSeals         = "lineage.seals"
	MetricLineageTornTruncated = "lineage.torn_truncated"
	// MetricLineageReplay histograms the restore half of a lineage resume:
	// scanning the log and loading the last sealed breaker-state record.
	MetricLineageReplay = "lineage.replay.duration"

	// Calibrated I/O profile gauges (bytes/sec and nanoseconds), surfaced so
	// /metrics shows the numbers Algorithm 1's latency terms are using.
	MetricIOWriteBps      = "costmodel.io.write_bytes_per_sec"
	MetricIOReadBps       = "costmodel.io.read_bytes_per_sec"
	MetricIOUploadBps     = "costmodel.io.upload_bytes_per_sec"
	MetricIODownloadBps   = "costmodel.io.download_bytes_per_sec"
	MetricIOFixedLatency  = "costmodel.io.fixed_latency_ns"
	MetricIOUploadLatency = "costmodel.io.upload_latency_ns"

	// Calibrated lineage profile gauges: the log terms Algorithm 1 prices a
	// lineage seal from.
	MetricLineageAppendLatency = "costmodel.lineage.append_latency_ns"
	MetricLineageLogBps        = "costmodel.lineage.log_bytes_per_sec"

	// Scale-to-zero metrics. IdleSuspended counts running sessions parked
	// to the store because nobody was watching them; IdleWoken counts
	// parked sessions re-queued by a client touch (Info/Wait/HTTP).
	MetricServerIdleSuspended = "server.idle_suspended"
	MetricServerIdleWoken     = "server.idle_woken"

	// Control-plane metrics (the riveter-proxy fleet layer).
	// Instances gauges the registered instances currently routable;
	// Failovers counts dead-instance session moves; Rerouted counts
	// sessions re-pinned onto a survivor via store adoption; Resubmitted
	// counts sessions replayed from their original request because no
	// recoverable state survived; Adopted counts sessions a target
	// instance claimed on the proxy's behalf; Drains counts deliberate
	// drain-to-store evacuations (spot notice or operator); DrainSkipped
	// counts drains refused to keep the last accepting instance alive.
	MetricCPInstances     = "controlplane.instances"
	MetricCPFailovers     = "controlplane.failovers"
	MetricCPRerouted      = "controlplane.rerouted"
	MetricCPResubmitted   = "controlplane.resubmitted"
	MetricCPAdopted       = "controlplane.adopted"
	MetricCPDrains        = "controlplane.drains"
	MetricCPDrainSkipped  = "controlplane.drain_skipped"
	MetricCPDeaths        = "controlplane.deaths"
	MetricCPWakeRequests  = "controlplane.wake_requests"
	MetricCPProxyRequests = "controlplane.proxy.requests"
	// MetricCPProxyLatency histograms proxy-observed request latency for
	// non-blocking operations (submits and session polls; wait-mode
	// requests go to MetricCPProxyWaitLatency since they legitimately
	// last the query's runtime).
	MetricCPProxyLatency     = "controlplane.proxy.latency"
	MetricCPProxyWaitLatency = "controlplane.proxy.wait_latency"
	// MetricCPWaitRounds counts the held session reads wait-mode requests
	// issued; over MetricCPProxyWaitLatency's count it is held reads per
	// waited query — 1 when a query finishes inside one hold.
	MetricCPWaitRounds = "controlplane.wait_rounds"

	// Fleet resilience metrics. Retries counts backed-off re-attempts of a
	// transiently failed instance request; RetryExhausted counts logical
	// requests that burned their whole retry budget without an answer;
	// ProbeDraining counts health probes classified "draining but alive"
	// (a 429/503 answer carrying a parseable health document — NOT a death
	// miss). The breaker.* namespace tracks the per-instance circuit
	// breakers: Opened counts closed→open trips, Closed counts half-open
	// trial successes returning an instance to service, Rejected counts
	// requests fast-failed while a breaker was open, and Open gauges how
	// many breakers are currently open.
	MetricCPRetries         = "controlplane.retries"
	MetricCPRetryExhausted  = "controlplane.retry_exhausted"
	MetricCPProbeDraining   = "controlplane.probe_draining"
	MetricCPBreakerOpened   = "controlplane.breaker.opened"
	MetricCPBreakerClosed   = "controlplane.breaker.closed"
	MetricCPBreakerRejected = "controlplane.breaker.rejected"
	MetricCPBreakerOpen     = "controlplane.breaker.open"

	// Shared-execution (fold) metrics. Hubs gauges live scan hubs; Attached
	// counts riders attached to hubs (engine-level scan sharing), one per
	// base-table scan of each compiled plan: a Query compiles once, at
	// Prepare, however often it runs; Hits
	// counts morsels served from a hub's shared window; Fills counts
	// morsels a rider materialized into the window for everyone behind it;
	// DirectReads counts below-window (catch-up / privatized) reads that
	// went straight to the base table.
	MetricFoldHubs        = "fold.hubs"
	MetricFoldAttached    = "fold.attached"
	MetricFoldHits        = "fold.hits"
	MetricFoldFills       = "fold.fills"
	MetricFoldDirectReads = "fold.direct_reads"

	// MetricServerFolded counts sessions the server folded onto a live
	// leader at admission (whole-plan folding: the rider holds no slot and
	// receives the leader's teed result); MetricServerFoldRiders gauges
	// riders currently attached to live leaders.
	MetricServerFolded     = "server.folded"
	MetricServerFoldRiders = "server.fold_riders"

	// Prepared-plan cache metrics (the server's SQL front door).
	MetricPlanCacheHit  = "server.plancache.hit"
	MetricPlanCacheMiss = "server.plancache.miss"

	// Injected network-fault metrics (internal/faultnet): one counter per
	// fault kind plus a total, mirroring the faultfs Injected() accounting
	// so chaos tests can assert the plan actually fired.
	MetricFNInjected   = "faultnet.injected"
	MetricFNDelayed    = "faultnet.delayed"
	MetricFNDropped    = "faultnet.dropped"
	MetricFNBlackholed = "faultnet.blackholed"
	MetricFNAsymLost   = "faultnet.asym_lost"
	MetricFNStatus     = "faultnet.status_injected"
	MetricFNTruncated  = "faultnet.truncated"
)

// Kinded renders a per-strategy metric name: Kinded(MetricSuspendLatency,
// "process") == "suspend.latency.process".
func Kinded(metric, kind string) string { return metric + "." + kind }
