// Package repro is an open-source reproduction of
//
//	Dutta, Chaitanya, Kothapalli, Bera:
//	"Applications of Ear Decomposition to Efficient Heterogeneous
//	Algorithms for Shortest Path/Cycle Problems" (IJNC 8(1), 2018 /
//	IPPS 2017).
//
// It provides ear-decomposition-accelerated all-pairs shortest paths and
// minimum weight cycle basis computation for large sparse graphs, the
// comparison baselines the paper evaluates against, and the harness that
// regenerates every table and figure of the paper's evaluation (see
// cmd/earbench).
//
// This file is the public facade: it re-exports the library's stable
// surface so downstream users can depend on `repro` alone. The type
// aliases point into internal packages, which keeps the implementation
// free to evolve while the facade stays fixed.
package repro

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/apsp"
	"repro/internal/bc"
	"repro/internal/ear"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/hetero"
	"repro/internal/jobs"
	"repro/internal/mcb"
	"repro/internal/obs"
	"repro/internal/qe"
	"repro/internal/registry"
	"repro/internal/shard"
	"repro/internal/snapshot"
	"repro/internal/verify"
)

// Graph construction and I/O.
type (
	// Graph is an immutable weighted undirected multigraph in CSR form.
	Graph = graph.Graph
	// GraphBuilder accumulates edges before freezing them into a Graph.
	GraphBuilder = graph.Builder
	// Edge is one undirected edge.
	Edge = graph.Edge
	// Weight is the edge weight type.
	Weight = graph.Weight
)

// NewGraphBuilder returns a builder for a graph on n vertices 0..n-1.
func NewGraphBuilder(n int) *GraphBuilder { return graph.NewBuilder(n) }

// GraphFormat names one of the supported graph input formats, for reading
// from arbitrary streams rather than extension-carrying file paths.
type GraphFormat = graph.Format

// The supported graph formats.
const (
	// GraphFormatEdgeList is the plain "u v w" edge list.
	GraphFormatEdgeList = graph.FormatEdgeList
	// GraphFormatDIMACS is the DIMACS shortest-path format (.gr/.dimacs).
	GraphFormatDIMACS = graph.FormatDIMACS
	// GraphFormatMatrixMarket is symmetric coordinate MatrixMarket (.mtx).
	GraphFormatMatrixMarket = graph.FormatMatrixMarket
	// GraphFormatBinary is the binary .earg graph snapshot.
	GraphFormatBinary = graph.FormatBinary
)

// GraphFormatFromPath sniffs the format from a file extension (.mtx, .gr,
// .dimacs, .earg; anything else is treated as an edge list).
func GraphFormatFromPath(path string) GraphFormat { return graph.FormatFromPath(path) }

// ReadGraph parses a graph from r in the given format.
func ReadGraph(r io.Reader, format GraphFormat) (*Graph, error) { return graph.Read(r, format) }

// LoadGraph reads a graph file, sniffing the format from the extension via
// GraphFormatFromPath and delegating to ReadGraph.
func LoadGraph(path string) (*Graph, error) { return graph.LoadFile(path) }

// Ear decomposition.
type (
	// EarDecompositionEar is one ear (path) of an ear decomposition.
	EarDecompositionEar = ear.Ear
	// ReducedGraph is a graph with its degree-2 chains contracted plus the
	// anchor tables needed to answer queries about removed vertices.
	ReducedGraph = ear.Reduced
)

// errNilGraph is returned by every facade entry point handed a nil graph.
var errNilGraph = errors.New("repro: nil graph")

// EarDecompose returns the ears of a biconnected graph, or an error if the
// graph is not biconnected (an ear decomposition exists iff the graph is
// two-edge-connected).
func EarDecompose(g *Graph) ([]EarDecompositionEar, error) {
	if g == nil {
		return nil, errNilGraph
	}
	return ear.Decompose(g)
}

// ReduceGraph contracts all maximal degree-2 chains of g (APSP mode:
// parallel chains collapse to the cheapest).
func ReduceGraph(g *Graph) (*ReducedGraph, error) {
	if g == nil {
		return nil, errNilGraph
	}
	return ear.Reduce(g, ear.APSP), nil
}

// All-pairs shortest paths.
type (
	// APSPOracle answers distance queries in O(1) after the
	// ear-decomposition pipeline, storing O(a² + Σ nᵢ²) entries.
	APSPOracle = apsp.Oracle
)

// APSPOptions configures oracle construction. The zero value is usable:
// zero Workers selects GOMAXPROCS.
type APSPOptions struct {
	// Workers is the parallelism of the per-block processing phase and
	// the articulation-point table sweep (0 = GOMAXPROCS).
	Workers int
}

// ShortestPathsOpts builds the APSP oracle with explicit options. It is a
// thin wrapper over ShortestPathsCtx with a background context; callers
// that need cancellation or deadlines on long builds should use the Ctx
// form directly.
func ShortestPathsOpts(g *Graph, opts APSPOptions) (*APSPOracle, error) {
	return ShortestPathsCtx(context.Background(), g, opts)
}

// ShortestPathsCtx builds the APSP oracle under ctx: the build checks the
// context between biconnected components and between the per-source
// Dijkstra units inside each, so cancelling the context or hitting its
// deadline abandons the build promptly and returns the context error.
func ShortestPathsCtx(ctx context.Context, g *Graph, opts APSPOptions) (*APSPOracle, error) {
	if g == nil {
		return nil, errNilGraph
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = hetero.Workers()
	}
	return apsp.NewOracleParallelCtx(ctx, g, workers)
}

// ShortestPaths builds the APSP oracle with the given parallelism
// (0 = GOMAXPROCS). It is a thin wrapper over ShortestPathsOpts, kept for
// existing callers.
func ShortestPaths(g *Graph, workers int) (*APSPOracle, error) {
	return ShortestPathsOpts(g, APSPOptions{Workers: workers})
}

// Oracle snapshots (build-once/serve-many persistence).
//
// A snapshot is one checksummed binary file holding everything oracle
// construction produced — the graph, the per-block ear reductions and
// distance tables, the block-cut forest, and the articulation table — so a
// serving process can load it and answer its first query without running
// any build phase. Corrupt, truncated, or version-skewed files are
// rejected with errors matching the ErrSnapshot* sentinels (via
// errors.Is), never a panic.

// Snapshot rejection sentinels.
var (
	// ErrSnapshotBadMagic reports input that is not a snapshot at all.
	ErrSnapshotBadMagic = snapshot.ErrBadMagic
	// ErrSnapshotVersionSkew reports a snapshot written by an
	// incompatible format version.
	ErrSnapshotVersionSkew = snapshot.ErrVersionSkew
	// ErrSnapshotChecksum reports a section whose checksum does not match
	// its bytes.
	ErrSnapshotChecksum = snapshot.ErrChecksum
	// ErrSnapshotCorrupt reports structurally invalid snapshot contents.
	ErrSnapshotCorrupt = snapshot.ErrCorrupt
)

// WriteOracle serialises a built oracle to w.
func WriteOracle(w io.Writer, o *APSPOracle) (int64, error) { return o.WriteTo(w) }

// ReadOracle restores an oracle from a snapshot stream, with zero
// re-computation of any build phase.
func ReadOracle(r io.Reader) (*APSPOracle, error) { return apsp.ReadOracle(r) }

// SaveOracle writes the oracle snapshot to a file.
func SaveOracle(path string, o *APSPOracle) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := o.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadOracle restores an oracle from a snapshot file written by
// SaveOracle (or cmd/apsp -snapshot, or oracled -save-snapshot).
func LoadOracle(path string) (*APSPOracle, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return apsp.ReadOracle(f)
}

// Live updates (deltas).
//
// ApplyDelta mutates an oracle incrementally: it classifies an ordered
// edge/weight delta script against the block partition, recomputes only
// the affected blocks, and returns a NEW oracle — the receiver keeps
// serving unchanged, so a server can swap atomically. Edge IDs are
// positional at application time: a delete shifts later IDs down, an
// insert appends.
type (
	// Delta is one edge/weight mutation in a script.
	Delta = apsp.Delta
	// DeltaKind discriminates weight change, insertion, deletion.
	DeltaKind = apsp.DeltaKind
	// DeltaResult reports what one ApplyDelta call recomputed and which
	// vertices' cached rows went stale.
	DeltaResult = apsp.DeltaResult
)

// The delta kinds.
const (
	// DeltaWeight changes the weight of an existing edge.
	DeltaWeight = apsp.DeltaWeight
	// DeltaInsert adds an edge (possibly growing the vertex set by its
	// endpoints).
	DeltaInsert = apsp.DeltaInsert
	// DeltaDelete removes an edge; later edge IDs shift down by one.
	DeltaDelete = apsp.DeltaDelete
)

// ErrBadDelta reports an invalid delta script: the whole script is
// validated before any recomputation, so a script rejected with this
// error changed nothing.
var ErrBadDelta = apsp.ErrBadDelta

// ApplyDelta applies an ordered delta script to o, returning the updated
// oracle (o itself is untouched) and a report of what was recomputed.
func ApplyDelta(ctx context.Context, o *APSPOracle, deltas []Delta) (*APSPOracle, *DeltaResult, error) {
	return o.ApplyDelta(ctx, deltas)
}

// MutateGraph applies a delta script to a graph alone — the reference
// semantics ApplyDelta is differentially tested against.
func MutateGraph(g *Graph, deltas []Delta) (*Graph, error) { return apsp.MutateGraph(g, deltas) }

// WriteOracleChain serialises o plus a delta script as one chain
// snapshot: ReadOracle of the stream replays the script onto o, so a
// restarted server resumes at the chain's head state.
func WriteOracleChain(w io.Writer, o *APSPOracle, deltas []Delta) (int64, error) {
	return o.WriteChainTo(w, deltas)
}

// Query serving.
type (
	// QueryEngine is the batched query engine of the serving stack: rows
	// are computed lazily, coalesced across concurrent requests, and kept
	// in a bounded LRU; admission control sheds excess load with
	// ErrOverloaded.
	QueryEngine = qe.Engine
	// EngineConfig tunes a QueryEngine; the zero value is usable.
	EngineConfig = qe.Config
	// RowSource is the oracle surface an engine builds rows from;
	// *APSPOracle satisfies it.
	RowSource = qe.RowSource
)

// ErrOverloaded is returned by engine queries shed by admission control.
var ErrOverloaded = qe.ErrOverloaded

// NewQueryEngine builds a query engine over any RowSource.
func NewQueryEngine(src RowSource, cfg EngineConfig) *QueryEngine { return qe.New(src, cfg) }

// Unreachable reports whether a distance returned by an engine query
// means "no path".
func Unreachable(d Weight) bool { return qe.Unreachable(d) }

// Multi-tenant serving (the graph registry).
type (
	// Registry hosts many named graphs in one process: each is an
	// APSPOracle + QueryEngine pair hydrated lazily from a snapshot
	// directory (one <name>.snap per graph), with singleflight hydration,
	// capacity-bounded LRU eviction that drains in-flight requests
	// through reference counts, per-graph engine limits, and per-graph
	// metric namespacing under "g.<name>.".
	Registry = registry.Registry
	// RegistryConfig configures OpenRegistry.
	RegistryConfig = registry.Config
	// RegistryEntry is one resident graph, returned by Registry.Acquire
	// with a reference held; callers must Release exactly once.
	RegistryEntry = registry.Entry
	// RegistryLimits bounds each hydrated graph's engine (cache rows,
	// admission, deadlines, batch caps).
	RegistryLimits = registry.Limits
	// RegistryGraphInfo is one graph's lifecycle row in Registry.List.
	RegistryGraphInfo = registry.GraphInfo
)

// RegistryDefaultGraph is the reserved name carrying the single-graph
// compatibility surface: a daemon serving one graph pins it under this
// name, and unnamed routes resolve to it.
const RegistryDefaultGraph = registry.DefaultGraph

// Typed failures of the registry surface, wrap-compatible with errors.Is.
var (
	// ErrRegistryUnknownGraph reports a name with no registered snapshot.
	ErrRegistryUnknownGraph = registry.ErrUnknownGraph
	// ErrRegistryBadName reports an illegal graph name (outside
	// [a-zA-Z0-9._-]{1,128}, or dots-only).
	ErrRegistryBadName = registry.ErrBadName
	// ErrRegistryReadOnly reports Register/Remove on a registry without a
	// snapshot directory.
	ErrRegistryReadOnly = registry.ErrReadOnly
	// ErrRegistryClosed reports any operation after Registry.Close.
	ErrRegistryClosed = registry.ErrClosed
)

// OpenRegistry builds a graph registry over cfg, scanning cfg.Dir (when
// set) for *.snap files; hydration stays lazy until each graph's first
// Acquire.
func OpenRegistry(cfg RegistryConfig) (*Registry, error) { return registry.Open(cfg) }

// RegistryLimitsFromConfig lifts a resolved engine config into per-graph
// limits, so one tuning surface covers both serving modes.
func RegistryLimitsFromConfig(cfg EngineConfig) RegistryLimits {
	return registry.LimitsFromConfig(cfg)
}

// Horizontally sharded serving: a plan cuts an oracle's biconnected
// blocks across shards along the block-cut forest, each shard daemon
// serves its owned per-block reductions, and a frontend's
// RemoteRowSource fans row requests out over HTTP and stitches the
// answers at articulation points — byte-identical to the monolith.
type (
	// ShardPlan is the cluster's manifest: block→shard assignment, the
	// block-cut forest, the articulation-point boundary table, and a
	// content-derived plan epoch. Serialise with WriteShardPlan /
	// ReadShardPlan.
	ShardPlan = shard.Plan
	// ShardPlanOptions tunes PlanShards; the zero value of every field
	// except Shards is usable.
	ShardPlanOptions = shard.PlanOptions
	// ShardSourceConfig configures NewRemoteRowSource: the plan, one
	// address per shard, and retry/hedging/probing knobs.
	ShardSourceConfig = shard.SourceConfig
	// RemoteRowSource is the frontend's fan-out RowSource: it routes
	// each row to its owning shard daemon, stitches cross-block answers
	// through the plan's boundary table, and degrades into typed
	// ErrShardUnavailable / ErrShardEpochMismatch failures. It satisfies
	// RowSource, so NewQueryEngine serves it unchanged.
	RemoteRowSource = shard.RemoteSource
	// ShardStatus is one shard's health row from RemoteRowSource.Status.
	ShardStatus = shard.ShardStatus
	// ShardError is the typed wrapper on every fan-out failure, carrying
	// the shard id and address; errors.As-compatible.
	ShardError = shard.Error
	// ShardMeta identifies one shard snapshot (epoch, shard id, shard
	// count); WriteShardSnapshot stamps it, ReadShardSnapshot checks it.
	ShardMeta = apsp.ShardMeta
	// ShardBlocks is one daemon's loaded shard snapshot: the owned
	// per-block ear reductions it serves rows from.
	ShardBlocks = apsp.ShardBlocks
)

// Typed failures of the sharded serving surface, wrap-compatible with
// errors.Is.
var (
	// ErrShardUnavailable reports a shard daemon that stayed unreachable
	// through the configured retries; the query may succeed after the
	// shard recovers.
	ErrShardUnavailable = shard.ErrShardUnavailable
	// ErrShardEpochMismatch reports a frontend and shard daemon serving
	// different plan epochs; retrying cannot help until the cluster is
	// re-rolled onto one plan.
	ErrShardEpochMismatch = shard.ErrEpochMismatch
	// ErrShardNotOwned reports a row request for a block the shard
	// snapshot does not carry (a misrouted request or a stale plan).
	ErrShardNotOwned = apsp.ErrNotOwned
)

// PlanShards cuts o into a serving cluster: blocks are assigned to
// opts.Shards shards weight-balanced along the block-cut forest, and the
// returned plan carries everything a frontend needs to stitch answers.
func PlanShards(o *APSPOracle, opts ShardPlanOptions) (*ShardPlan, error) {
	return shard.PlanShards(o, opts)
}

// WriteShardPlan serialises a plan manifest (checksummed; ReadShardPlan
// rejects corruption and recomputes-or-verifies the epoch).
func WriteShardPlan(w io.Writer, p *ShardPlan) (int64, error) { return p.WriteTo(w) }

// ReadShardPlan deserialises a plan manifest written by WriteShardPlan.
func ReadShardPlan(r io.Reader) (*ShardPlan, error) { return shard.ReadPlan(r) }

// NewRemoteRowSource builds the frontend's fan-out source over a plan
// and one shard daemon address per shard. Close releases its probe
// loop and idle connections.
func NewRemoteRowSource(cfg ShardSourceConfig) (*RemoteRowSource, error) {
	return shard.NewRemoteSource(cfg)
}

// WriteShardSnapshot serialises the per-block reductions owned[b]==true
// selects, stamped with meta, for one shard daemon to serve.
func WriteShardSnapshot(w io.Writer, o *APSPOracle, meta ShardMeta, owned []bool) (int64, error) {
	return o.WriteShardSnapshot(w, meta, owned)
}

// ReadShardSnapshot loads a shard snapshot written by WriteShardSnapshot.
func ReadShardSnapshot(r io.Reader) (*ShardBlocks, error) { return apsp.ReadShardSnapshot(r) }

// Async jobs: persistent whole-graph computations (distance-matrix slabs,
// betweenness centrality) with checkpoint/resume and streaming NDJSON
// results. cmd/oracled serves this tier over /v1/jobs; the same manager
// embeds directly.
type (
	// JobsManager owns a directory of durable jobs: submission, fair
	// per-graph dispatch, checkpointing, result streaming, and
	// crash-resume on Open.
	JobsManager = jobs.Manager
	// JobsConfig configures OpenJobs. Host resolves graph names to
	// engine-bearing references (a registry Acquire adapts directly);
	// Dir is where checkpoints and result streams live.
	JobsConfig = jobs.Config
	// JobSpec describes one submitted job (kind batch_matrix or bc).
	JobSpec = jobs.Spec
	// JobStatus is one job's externally visible state: lifecycle state,
	// progress fraction, row counters, durable result bytes.
	JobStatus = jobs.Status
	// JobGraphRef is the graph handle a jobs Host returns; held for a
	// job's whole run so eviction drains behind it.
	JobGraphRef = jobs.GraphRef
)

// Job kinds and terminal-state predicate.
const (
	JobKindBatchMatrix = jobs.KindBatchMatrix
	JobKindBC          = jobs.KindBC
)

// JobTerminal reports whether a job state is final (completed, failed,
// or cancelled).
func JobTerminal(state string) bool { return jobs.Terminal(state) }

// OpenJobs opens (or recovers) a job manager over cfg.Dir: interrupted
// jobs found on disk re-enter the queue and resume from their
// checkpoints.
func OpenJobs(cfg JobsConfig) (*JobsManager, error) { return jobs.Open(cfg) }

// Observability.
type (
	// MetricsRegistry is a concurrent-safe namespace of counters, gauges,
	// histograms and phase timers, renderable as one JSON object (it
	// implements expvar.Var).
	MetricsRegistry = obs.Registry
)

// Metrics returns the process-wide registry the library records into:
// oracle build phases under "apsp.build", snapshot save/load under
// "snapshot", and engine cache/admission counters under "qe.*".
func Metrics() *MetricsRegistry { return obs.Default }

// Minimum cycle basis.
type (
	// MCBResult holds a minimum weight cycle basis and its accounting.
	MCBResult = mcb.Result
	// MCBOptions configures platform, parallelism and ablations.
	MCBOptions = mcb.Options
	// MCBCycle is one basis element.
	MCBCycle = mcb.Cycle
)

// Typed errors of the MCB checked accessors (CycleChecked,
// CyclesThroughVertexChecked, VertexSequenceChecked on MCBResult),
// wrap-compatible with errors.Is — the cycle-space counterparts of the
// ErrSnapshot* sentinels above.
var (
	// ErrMCBCycleIndex reports a cycle index outside the basis.
	ErrMCBCycleIndex = mcb.ErrCycleIndex
	// ErrMCBVertexRange reports a vertex ID outside the graph.
	ErrMCBVertexRange = mcb.ErrVertexRange
	// ErrMCBEdgeRange reports a basis element referencing an edge ID the
	// graph does not have (only possible for externally built results).
	ErrMCBEdgeRange = mcb.ErrEdgeRange
	// ErrMCBNotClosedWalk reports a basis element that is not one closed
	// walk and therefore has no vertex sequence.
	ErrMCBNotClosedWalk = mcb.ErrNotClosedWalk
)

// MinimumCycleBasis computes an MCB with the ear reduction enabled. It is
// a thin wrapper over MinimumCycleBasisCtx with a background context.
func MinimumCycleBasis(g *Graph) (*MCBResult, error) {
	return MinimumCycleBasisCtx(context.Background(), g)
}

// MinimumCycleBasisCtx computes an MCB with the ear reduction enabled,
// honouring ctx: the pipeline checks the context between biconnected
// components, between De Pina phases, and between the work units of each
// parallel stage, so cancellation stops candidate shortest-path trees
// mid-flight. On cancellation the error wraps ctx.Err() (errors.Is with
// context.Canceled / context.DeadlineExceeded).
func MinimumCycleBasisCtx(ctx context.Context, g *Graph) (*MCBResult, error) {
	return MinimumCycleBasisOptsCtx(ctx, g, MCBOptions{UseEar: true, Workers: hetero.Workers()})
}

// MinimumCycleBasisOpts computes an MCB with explicit options. It is a
// thin wrapper over MinimumCycleBasisOptsCtx with a background context.
func MinimumCycleBasisOpts(g *Graph, opts MCBOptions) (*MCBResult, error) {
	return MinimumCycleBasisOptsCtx(context.Background(), g, opts)
}

// MinimumCycleBasisOptsCtx is MinimumCycleBasisOpts under ctx, with the
// same cancellation contract as MinimumCycleBasisCtx.
// The returned basis is checked against the cycle-space dimension
// m − n + c before it is handed out.
func MinimumCycleBasisOptsCtx(ctx context.Context, g *Graph, opts MCBOptions) (*MCBResult, error) {
	if g == nil {
		return nil, errNilGraph
	}
	res, err := mcb.ComputeCtx(ctx, g, opts)
	if err != nil {
		return nil, err
	}
	if want := mcb.Dim(g); res.Dim != want {
		return nil, fmt.Errorf("repro: internal error: basis dimension %d, want %d", res.Dim, want)
	}
	return res, nil
}

// Generators (for experimentation and tests).
type (
	// RNG is the deterministic generator used by all graph generators.
	RNG = gen.RNG
	// GenConfig carries generator weight settings.
	GenConfig = gen.Config
)

// NewRNG returns a deterministic random generator.
func NewRNG(seed uint64) *RNG { return gen.NewRNG(seed) }

// Betweenness centrality (the companion path-based application).
type (
	// BCResult holds betweenness centrality scores.
	BCResult = bc.Result
)

// BCOptions configures betweenness centrality. The zero value is usable:
// zero Workers selects GOMAXPROCS.
type BCOptions struct {
	// Workers is the per-source parallelism (0 = GOMAXPROCS).
	Workers int
}

// BetweennessCentralityOpts computes exact weighted betweenness
// centrality with explicit options.
func BetweennessCentralityOpts(g *Graph, opts BCOptions) *BCResult {
	workers := opts.Workers
	if workers <= 0 {
		workers = hetero.Workers()
	}
	return bc.Parallel(g, workers)
}

// BetweennessCentrality computes exact weighted betweenness centrality
// with the given parallelism (0 = GOMAXPROCS). It is a thin wrapper over
// BetweennessCentralityOpts, kept for existing callers.
func BetweennessCentrality(g *Graph, workers int) *BCResult {
	return BetweennessCentralityOpts(g, BCOptions{Workers: workers})
}

// Verification certificates.

// VerifyDistances certifies a single-source distance vector against g.
func VerifyDistances(g *Graph, source int32, dist []Weight) error {
	return verify.Distances(g, source, dist)
}

// VerifyPath certifies that walk is a walk in g of exactly the given
// weight.
func VerifyPath(g *Graph, walk []int32, weight Weight) error {
	return verify.Walk(g, walk, weight)
}

// VerifyCycleBasis certifies structure and independence of an MCB result.
func VerifyCycleBasis(g *Graph, res *MCBResult) error {
	return verify.CycleBasis(g, res)
}

// WriteDOT renders the graph in Graphviz format.
func WriteDOT(w io.Writer, g *Graph, showWeights bool) error {
	return graph.WriteDOT(w, g, graph.DOTOptions{ShowWeights: showWeights})
}
