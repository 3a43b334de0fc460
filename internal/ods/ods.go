// Package ods assembles the complete simulated online data store: a
// cluster with CPUs and a ServerNet fabric, data and audit disk volumes,
// DP2 disk-process pairs per file partition, one ADP log-writer pair per
// CPU, the TMF transaction monitor, and — in PM mode — a mirrored NPMU
// pair managed by a PMM, with the log writers re-pointed at persistent
// memory exactly as the paper's prototype did (§4.2).
package ods

import (
	"fmt"
	"sort"

	"persistmem/internal/adp"
	"persistmem/internal/audit"
	"persistmem/internal/cluster"
	"persistmem/internal/disk"
	"persistmem/internal/metrics"
	"persistmem/internal/npmu"
	"persistmem/internal/pmm"
	"persistmem/internal/sim"
	"persistmem/internal/tmf"

	"persistmem/internal/dp2"
)

// Durability selects the audit-trail backend for the whole store.
type Durability int

// Store-wide durability modes.
const (
	// DiskDurability flushes audit to disk volumes at commit (baseline).
	DiskDurability Durability = iota
	// PMDurability writes audit synchronously to mirrored NPMUs (the
	// paper's modification), and gives the TMF fine-grained transaction
	// control blocks in PM.
	PMDurability
	// PMDirectDurability implements §3.4's end vision: each database
	// writer persists its changes once, synchronously, into its own PM
	// log region. There are no log writers at all; the TMF's fine-grained
	// control block is the commit point.
	PMDirectDurability
)

// String names the mode.
func (d Durability) String() string {
	switch d {
	case PMDurability:
		return "pm"
	case PMDirectDurability:
		return "pmdirect"
	default:
		return "disk"
	}
}

// FileSpec declares one key-sequenced file.
type FileSpec struct {
	Name       string
	Partitions int
}

// Options configures a store. DefaultOptions mirrors the paper's §4.3
// benchmark deployment.
type Options struct {
	Seed int64
	// CPUs in the node (paper: 4; a 5th carried the PMP, which here is a
	// fabric device and needs no CPU).
	CPUs int
	// Files and their partition counts (paper: 4 files × 4 partitions).
	Files []FileSpec
	// DataVolumes across which partitions are spread (paper: 16).
	DataVolumes int
	// AuditStreams is the number of independent ADP audit streams (log
	// writer pairs, each with its own audit volume or PM log region).
	// 0 means one per CPU — the paper's deployment and the historical
	// behavior of this store. More streams than CPUs spreads the audit
	// path across more log writers so the volume sweep keeps scaling
	// past the per-CPU bottleneck; the assignment of DP2s to streams is
	// unchanged when AuditStreams == CPUs. Ignored under
	// PMDirectDurability (no log writers exist).
	AuditStreams int
	// Durability selects disk or PM audit.
	Durability Durability
	// UsePMP substitutes the paper's process-based prototype device for
	// hardware NPMUs (slightly slower, volatile).
	UsePMP bool
	// MirrorPM uses a mirrored NPMU pair (paper's configuration). Setting
	// it false is the A2 ablation (single device).
	MirrorPM bool
	// RetainData keeps row bodies and device contents readable (crash
	// tests); benchmarks set it false for timing-only runs.
	RetainData bool
	// NoGroupCommit disables log-writer flush piggybacking (A1 ablation).
	NoGroupCommit bool
	// Metrics, when non-nil, wires the whole stack's span instrumentation
	// into this registry: commit-path marks, lock-queue spans, ADP boxcar
	// accounting, disk queue/service, fabric transfers, and PM writes.
	// Leaving it nil (the default) keeps every instrument pointer nil, so
	// the hot paths pay only nil tests and all benchmark output is
	// byte-identical to an unbuilt registry.
	Metrics *metrics.Registry

	// DiskConfig shapes all disk volumes.
	DiskConfig disk.Config
	// ClusterConfig shapes CPUs and fabric.
	ClusterConfig cluster.Config
	// PMRegionBytes sizes each ADP's PM log region.
	PMRegionBytes int64
	// NPMUBytes sizes each NPMU device.
	NPMUBytes int64
	// DataVolumeBytes and AuditVolumeBytes size the disk volumes.
	DataVolumeBytes  int64
	AuditVolumeBytes int64
}

// DefaultOptions returns the paper-shaped configuration.
func DefaultOptions() Options {
	return Options{
		Seed: 1,
		CPUs: 4,
		Files: []FileSpec{
			{Name: "FILE0", Partitions: 4},
			{Name: "FILE1", Partitions: 4},
			{Name: "FILE2", Partitions: 4},
			{Name: "FILE3", Partitions: 4},
		},
		DataVolumes:      16,
		Durability:       DiskDurability,
		MirrorPM:         true,
		RetainData:       false,
		DiskConfig:       disk.DefaultConfig(),
		ClusterConfig:    cluster.DefaultConfig(),
		PMRegionBytes:    32 << 20,
		NPMUBytes:        256 << 20,
		DataVolumeBytes:  2 << 30,
		AuditVolumeBytes: 2 << 30,
	}
}

// auditStreams resolves the effective audit-stream count (default: one
// per CPU).
func (o *Options) auditStreams() int {
	if o.AuditStreams > 0 {
		return o.AuditStreams
	}
	return o.CPUs
}

// PMVolumeName is the PMM service name for the store's PM volume.
const PMVolumeName = "$PM1"

// Store is a fully assembled online data store.
type Store struct {
	Eng *sim.Engine
	Cl  *cluster.Cluster

	Opts Options

	DataVolumes  []*disk.Volume
	AuditVolumes []*disk.Volume
	ADPs         []*adp.ADP
	DP2s         map[string]*dp2.DP2 // by service name
	TMF          *tmf.TMF

	// PM deployment (PMDurability only).
	NPMUPrimary *npmu.Device
	NPMUMirror  *npmu.Device
	PMM         *pmm.Manager

	// dpNames caches partition -> DP2 service name.
	dpNames map[string][]string // file -> per-partition name
}

// Build constructs and starts a store on a fresh engine.
func Build(opts Options) *Store {
	return BuildOn(sim.NewEngine(opts.Seed), opts)
}

// checkOptions validates the store's sizing invariants.
func checkOptions(opts Options) {
	if opts.CPUs < 2 {
		panic("ods: need at least 2 CPUs for process pairs")
	}
	switch opts.Durability {
	case PMDurability:
		need := int64(opts.auditStreams())*opts.PMRegionBytes + (2 << 20) + pmm.MetaBytes
		if need > opts.NPMUBytes {
			panic(fmt.Sprintf("ods: NPMUBytes %d too small: %d audit streams × %d PM log regions + TCB + metadata need %d",
				opts.NPMUBytes, opts.auditStreams(), opts.PMRegionBytes, need))
		}
	case PMDirectDurability:
		nDP2 := 0
		for _, f := range opts.Files {
			nDP2 += f.Partitions
		}
		need := int64(nDP2)*opts.PMRegionBytes + (2 << 20) + pmm.MetaBytes
		if need > opts.NPMUBytes {
			panic(fmt.Sprintf("ods: NPMUBytes %d too small: %d DP2s × %d PM log regions + TCB + metadata need %d",
				opts.NPMUBytes, nDP2, opts.PMRegionBytes, need))
		}
	}
}

// BuildOn constructs and starts a store on an existing engine (so tests
// can co-locate other machinery): its volumes, devices, and service
// pairs.
func BuildOn(eng *sim.Engine, opts Options) *Store {
	checkOptions(opts)
	ccfg := opts.ClusterConfig
	ccfg.CPUs = opts.CPUs
	cl := cluster.New(eng, ccfg)
	s := &Store{
		Eng:     eng,
		Cl:      cl,
		Opts:    opts,
		DP2s:    make(map[string]*dp2.DP2),
		dpNames: make(map[string][]string),
	}

	if opts.Metrics != nil {
		cl.Fabric().SetMetrics(opts.Metrics.Net)
	}

	mkVolume := func(name string, capacity int64, spans *metrics.DiskSpans) *disk.Volume {
		var v *disk.Volume
		if opts.RetainData {
			v = disk.New(eng, name, opts.DiskConfig, capacity)
		} else {
			v = disk.NewDiscard(eng, name, opts.DiskConfig, capacity)
		}
		v.SetMetrics(spans)
		return v
	}
	var dataSpans, auditSpans *metrics.DiskSpans
	if opts.Metrics != nil {
		dataSpans, auditSpans = opts.Metrics.DataDisk, opts.Metrics.AuditDisk
	}

	for i := 0; i < opts.DataVolumes; i++ {
		s.DataVolumes = append(s.DataVolumes, mkVolume(fmt.Sprintf("$DATA%02d", i), opts.DataVolumeBytes, dataSpans))
	}

	// PM deployment first: the ADPs (or PMDirect DP2s) open their regions
	// at startup.
	if opts.Durability == PMDurability || opts.Durability == PMDirectDurability {
		mkDev := func(name string) *npmu.Device {
			switch {
			case opts.UsePMP:
				return npmu.NewPMP(cl, name, opts.NPMUBytes)
			case opts.RetainData:
				return npmu.New(cl, name, opts.NPMUBytes)
			default:
				return npmu.NewDiscard(cl, name, opts.NPMUBytes)
			}
		}
		s.NPMUPrimary = mkDev("npmu-a")
		if opts.MirrorPM {
			s.NPMUMirror = mkDev("npmu-b")
		} else {
			// A2 ablation: a single-device (unmirrored) PM volume.
			s.NPMUMirror = s.NPMUPrimary
		}
		s.PMM = pmm.Start(cl, PMVolumeName, 0, 1%opts.CPUs, s.NPMUPrimary, s.NPMUMirror)
	}

	// One ADP per audit stream (default: one per CPU), backup on the next
	// CPU, audit volume per stream. Streams beyond the CPU count wrap
	// around the CPUs round-robin. PMDirect has no log writers at all.
	nStreams := opts.auditStreams()
	if opts.Durability != PMDirectDurability {
		for i := 0; i < nStreams; i++ {
			acfg := adp.Config{
				Name:          fmt.Sprintf("$ADP%d", i),
				PrimaryCPU:    i % opts.CPUs,
				BackupCPU:     (i + 1) % opts.CPUs,
				Mode:          adp.Disk,
				NoGroupCommit: opts.NoGroupCommit,
				Metrics:       opts.Metrics,
			}
			if opts.Durability == PMDurability {
				acfg.Mode = adp.PM
				acfg.PMVolume = PMVolumeName
				acfg.RegionSize = opts.PMRegionBytes
			} else {
				vol := mkVolume(fmt.Sprintf("$AUDIT%d", i), opts.AuditVolumeBytes, auditSpans)
				s.AuditVolumes = append(s.AuditVolumes, vol)
				acfg.Volume = vol
			}
			s.ADPs = append(s.ADPs, adp.Start(cl, acfg))
		}
	}

	// DP2 pairs: partition v of file f lives on volume (fIdx*parts+v) %
	// DataVolumes, is served from CPU volume%CPUs, and audits to that
	// CPU's ADP.
	for fi, f := range opts.Files {
		names := make([]string, f.Partitions)
		for part := 0; part < f.Partitions; part++ {
			volIdx := (fi*f.Partitions + part) % opts.DataVolumes
			cpu := volIdx % opts.CPUs
			name := fmt.Sprintf("$DP-%s-%d", f.Name, part)
			names[part] = name
			dcfg := dp2.Config{
				Name:       name,
				File:       f.Name,
				Partition:  uint16(part),
				PrimaryCPU: cpu,
				BackupCPU:  (cpu + 1) % opts.CPUs,
				Volume:     s.DataVolumes[volIdx],
				RetainData: opts.RetainData,
				Metrics:    opts.Metrics,
			}
			if opts.Durability == PMDirectDurability {
				dcfg.Mode = dp2.PMDirect
				dcfg.PMVolume = PMVolumeName
				dcfg.PMRegionSize = opts.PMRegionBytes
			} else {
				// volIdx % nStreams == volIdx % CPUs at the default stream
				// count, so the historical assignment is preserved.
				dcfg.ADPName = fmt.Sprintf("$ADP%d", volIdx%nStreams)
			}
			s.DP2s[name] = dp2.Start(cl, dcfg)
		}
		s.dpNames[f.Name] = names
	}

	// The transaction monitor, with PM control blocks in both PM modes
	// (in PMDirect they are the commit point, not just an accelerator).
	tcfg := tmf.Config{PrimaryCPU: 0, BackupCPU: 1 % opts.CPUs, Metrics: opts.Metrics}
	if opts.Durability == PMDurability || opts.Durability == PMDirectDurability {
		tcfg.TCBVolume = PMVolumeName
	}
	s.TMF = tmf.Start(cl, tcfg)

	return s
}

// EventsExecuted returns the store engine's executed-event count.
func (s *Store) EventsExecuted() uint64 { return s.Eng.EventsExecuted() }

// Shutdown releases the store engine's goroutines.
func (s *Store) Shutdown() { s.Eng.Shutdown() }

// Run drains the store's simulation on its engine. workers is ignored:
// a store always runs on one engine, and callers that want concurrency
// run independent stores on bench.ForEach.
func (s *Store) Run(workers int) { s.Eng.Run() }

// SetCommitHook forwards to the transaction monitor's commit observer —
// the store-level handle fault-injection plans arm their "after the Nth
// commit" triggers through.
func (s *Store) SetCommitHook(fn func(total int64)) { s.TMF.SetCommitHook(fn) }

// SetPhaseHook forwards to the transaction monitor's two-phase window
// observer — the handle fault-injection plans use to land kills inside
// the prepare, pre-outcome, and apply windows of cross-shard commits.
func (s *Store) SetPhaseHook(fn func(phase tmf.CommitPhase, txn audit.TxnID, seq int64)) {
	s.TMF.SetPhaseHook(fn)
}

// DP2Name returns the service name for a file partition.
func (s *Store) DP2Name(file string, partition int) string {
	names := s.dpNames[file]
	return names[partition]
}

// Partitions returns the partition count of a file.
func (s *Store) Partitions(file string) int { return len(s.dpNames[file]) }

// PartitionOf routes a key to its partition (hash partitioning by key).
func (s *Store) PartitionOf(file string, key uint64) int {
	return int(key % uint64(len(s.dpNames[file])))
}

// Stop shuts down every service pair (used by tests; benchmark runs just
// abandon the engine). DP2s stop in name order: each Stop sends a message,
// so the sequence is schedule-visible and must not follow map order.
func (s *Store) Stop() {
	s.TMF.Stop()
	names := make([]string, 0, len(s.DP2s))
	//simlint:ordered -- collected into a slice and sorted below
	for name := range s.DP2s {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s.DP2s[name].Stop()
	}
	for _, a := range s.ADPs {
		a.Stop()
	}
	if s.PMM != nil {
		s.PMM.Stop()
	}
}
