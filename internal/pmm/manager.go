package pmm

import (
	"errors"
	"fmt"
	"sort"

	"persistmem/internal/cluster"
	"persistmem/internal/npmu"
	"persistmem/internal/servernet"
	"persistmem/internal/sim"
)

// Manager errors (returned to clients inside Resp.Err).
var (
	// ErrExists means a region with that name already exists.
	ErrExists = errors.New("pmm: region exists")
	// ErrNotFound means no region has that name.
	ErrNotFound = errors.New("pmm: region not found")
	// ErrBusy means the region is still open somewhere.
	ErrBusy = errors.New("pmm: region open")
	// ErrVolumeDown means neither NPMU of the volume accepted the
	// operation.
	ErrVolumeDown = errors.New("pmm: volume down")
)

// requestCost is the PMM's CPU time per management request.
const requestCost = 20 * sim.Microsecond

// Request/response protocol between clients and the PMM. Clients send one
// of the *Req types with Process.Call and receive a Resp.
type (
	// CreateReq creates a region.
	CreateReq struct {
		Name  string
		Size  int64
		Owner string
	}
	// OpenReq opens a region for RDMA access from ClientCPU.
	OpenReq struct {
		Name      string
		ClientCPU int
	}
	// CloseReq revokes ClientCPU's access to a region.
	CloseReq struct {
		Name      string
		ClientCPU int
	}
	// DeleteReq removes a region that is not open anywhere.
	DeleteReq struct{ Name string }
	// ListReq asks for the region table.
	ListReq struct{}
	// ResilverReq rebuilds the mirror: after an NPMU is replaced or
	// returns from a failure, the PMM copies every region's extent (and
	// rewrites the metadata) from the surviving device so the volume is
	// fully redundant again.
	ResilverReq struct{}
)

// ResilverResp reports the repair.
type ResilverResp struct {
	// BytesCopied is the amount moved from the survivor to the mirror.
	BytesCopied int64
	Err         error
}

// RegionInfo is what a client needs to access an open region directly:
// the network virtual address window and the device endpoints to address.
type RegionInfo struct {
	Name    string
	Base    uint32 // network virtual address of the region's first byte
	Size    int64
	Primary servernet.EndpointID
	Mirror  servernet.EndpointID
}

// Resp is the PMM's reply to any request.
type Resp struct {
	Info    RegionInfo   // for Create/Open
	Regions []RegionMeta // for List
	Err     error
}

// Manager runs the PMM process pair for one PM volume.
type Manager struct {
	cl       *cluster.Cluster
	name     string
	primDev  *npmu.Device
	mirrDev  *npmu.Device
	pair     *cluster.Pair
	formatOK bool

	// Stats
	MetaWrites   int64 // durable metadata slot writes (per device)
	Recoveries   int64 // cold starts that rebuilt state from device metadata
	Resilvers    int64 // completed mirror repairs
	RequestsSeen int64
}

// Start launches the PMM pair named name with its primary on CPU primCPU
// and backup on backCPU, controlling the mirrored NPMU pair (prim, mirr).
// Passing the same device twice runs an unmirrored volume (the mirroring
// ablation). The service is reachable under name via the cluster message
// system.
func Start(cl *cluster.Cluster, name string, primCPU, backCPU int, prim, mirr *npmu.Device) *Manager {
	if prim.Capacity() != mirr.Capacity() {
		panic("pmm: mirrored NPMUs must have equal capacity")
	}
	if prim.Capacity() <= MetaBytes {
		panic("pmm: NPMU too small for metadata area")
	}
	m := &Manager{cl: cl, name: name, primDev: prim, mirrDev: mirr}
	m.pair = cl.StartPair(name, primCPU, backCPU, m.serve)
	return m
}

// Name returns the volume/service name.
func (m *Manager) Name() string { return m.name }

// Pair returns the underlying process pair (for fault-injection tests).
func (m *Manager) Pair() *cluster.Pair { return m.pair }

// Devices returns the mirrored NPMU pair.
func (m *Manager) Devices() (primary, mirror *npmu.Device) { return m.primDev, m.mirrDev }

// Stop shuts the PMM down. Open regions keep working — clients access
// NPMUs directly and the device ATT is unaffected — but management
// operations become unavailable.
func (m *Manager) Stop() { m.pair.Stop() }

// devices returns the volume's distinct devices in a fixed order.
func (m *Manager) devices() []*npmu.Device {
	if m.primDev == m.mirrDev {
		return []*npmu.Device{m.primDev}
	}
	return []*npmu.Device{m.primDev, m.mirrDev}
}

// serve is the PMM service body, run by the pair's primary incarnation.
func (m *Manager) serve(ctx *cluster.PairCtx) {
	var st *VolumeState
	switch {
	case ctx.Restored != nil:
		st = ctx.Restored.(*VolumeState)
	default:
		st = m.recoverOrFormat(ctx)
	}

	// (Re)program this incarnation's management windows and any region
	// windows recorded as open. After a pure takeover the device ATT is
	// intact and reprogramming is an idempotent refresh; after a power
	// cycle it is what restores client access.
	m.programManagement(ctx)
	for _, name := range sortedOpen(st) {
		m.programRegion(st, name)
	}

	for {
		ev := ctx.Recv()
		m.RequestsSeen++
		ctx.Compute(requestCost)
		switch req := ev.Payload.(type) {
		case CreateReq:
			ev.Reply(m.handleCreate(ctx, st, req))
		case OpenReq:
			ev.Reply(m.handleOpen(ctx, st, req))
		case CloseReq:
			ev.Reply(m.handleClose(ctx, st, req))
		case DeleteReq:
			ev.Reply(m.handleDelete(ctx, st, req))
		case ListReq:
			ev.Reply(Resp{Regions: m.snapshotRegions(st)})
		case ResilverReq:
			ev.Reply(m.handleResilver(ctx, st))
		default:
			ev.Reply(Resp{Err: fmt.Errorf("pmm: unknown request %T", req)})
		}
	}
}

func (m *Manager) snapshotRegions(st *VolumeState) []RegionMeta {
	var out []RegionMeta
	for _, r := range st.sortedRegions() {
		out = append(out, *r)
	}
	return out
}

func (m *Manager) info(r *RegionMeta) RegionInfo {
	return RegionInfo{
		Name:    r.Name,
		Base:    uint32(r.Offset),
		Size:    r.Size,
		Primary: m.primDev.EndpointID(),
		Mirror:  m.mirrDev.EndpointID(),
	}
}

func (m *Manager) handleCreate(ctx *cluster.PairCtx, st *VolumeState, req CreateReq) Resp {
	if _, dup := st.Regions[req.Name]; dup {
		return Resp{Err: fmt.Errorf("%w: %q", ErrExists, req.Name)}
	}
	off, err := st.Allocate(req.Size, m.primDev.Capacity())
	if err != nil {
		return Resp{Err: err}
	}
	r := &RegionMeta{Name: req.Name, Owner: req.Owner, Offset: off, Size: req.Size}
	st.Regions[req.Name] = r
	if err := m.persist(ctx, st); err != nil {
		delete(st.Regions, req.Name)
		return Resp{Err: err}
	}
	m.checkpoint(ctx, st)
	return Resp{Info: m.info(r)}
}

func (m *Manager) handleOpen(ctx *cluster.PairCtx, st *VolumeState, req OpenReq) Resp {
	r, ok := st.Regions[req.Name]
	if !ok {
		return Resp{Err: fmt.Errorf("%w: %q", ErrNotFound, req.Name)}
	}
	set := st.OpenBy[req.Name]
	if set == nil {
		set = make(map[int]bool)
		st.OpenBy[req.Name] = set
	}
	set[req.ClientCPU] = true
	m.programRegion(st, req.Name)
	m.checkpoint(ctx, st)
	return Resp{Info: m.info(r)}
}

func (m *Manager) handleClose(ctx *cluster.PairCtx, st *VolumeState, req CloseReq) Resp {
	if _, ok := st.Regions[req.Name]; !ok {
		return Resp{Err: fmt.Errorf("%w: %q", ErrNotFound, req.Name)}
	}
	if set := st.OpenBy[req.Name]; set != nil {
		delete(set, req.ClientCPU)
		if len(set) == 0 {
			delete(st.OpenBy, req.Name)
		}
	}
	m.programRegion(st, req.Name)
	m.checkpoint(ctx, st)
	return Resp{}
}

func (m *Manager) handleDelete(ctx *cluster.PairCtx, st *VolumeState, req DeleteReq) Resp {
	r, ok := st.Regions[req.Name]
	if !ok {
		return Resp{Err: fmt.Errorf("%w: %q", ErrNotFound, req.Name)}
	}
	if len(st.OpenBy[req.Name]) > 0 {
		return Resp{Err: fmt.Errorf("%w: %q", ErrBusy, req.Name)}
	}
	delete(st.Regions, req.Name)
	if err := m.persist(ctx, st); err != nil {
		st.Regions[req.Name] = r
		return Resp{Err: err}
	}
	m.checkpoint(ctx, st)
	return Resp{}
}

// handleResilver copies every region extent from the primary device to
// the mirror (or the reverse if the primary is the one that was down),
// restoring full redundancy. The copy flows through the PMM's CPU as
// RDMA reads and writes in chunks, so it costs realistic fabric time and
// bandwidth. Client region access continues throughout — resilvering is
// an online repair.
func (m *Manager) handleResilver(ctx *cluster.PairCtx, st *VolumeState) ResilverResp {
	if m.primDev == m.mirrDev {
		return ResilverResp{} // unmirrored volume: nothing to repair
	}
	src, dst := m.primDev, m.mirrDev
	if !src.Powered() || !src.Endpoint().Up() {
		src, dst = dst, src
	}
	if !src.Powered() || !src.Endpoint().Up() || !dst.Powered() || !dst.Endpoint().Up() {
		return ResilverResp{Err: ErrVolumeDown}
	}
	// The repair path needs management windows that cover region space on
	// both devices for this CPU; install a dedicated full-device window.
	m.programManagement(ctx)
	cpuEP := ctx.CPU().Endpoint().ID()
	const repairBase = uint32(0xF0000000)
	for _, d := range []*npmu.Device{src, dst} {
		ep := d.Endpoint()
		ep.UnmapWindow(repairBase)
		ep.MapWindow(repairBase, uint32(d.Capacity()-MetaBytes), d.Store(), MetaBytes, servernet.Perm{
			Read: true, Write: true,
			Initiators: map[servernet.EndpointID]bool{cpuEP: true},
		})
		defer ep.UnmapWindow(repairBase)
	}

	fab := ctx.CPU().Fabric()
	const chunk = 256 << 10
	buf := make([]byte, chunk)
	var copied int64
	for _, r := range st.sortedRegions() {
		for off := int64(0); off < r.Size; off += chunk {
			n := r.Size - off
			if n > chunk {
				n = chunk
			}
			nva := repairBase + uint32(r.Offset-MetaBytes+off)
			if err := fab.RDMARead(ctx.Sim(), cpuEP, src.EndpointID(), nva, buf[:n]); err != nil {
				return ResilverResp{BytesCopied: copied, Err: err}
			}
			if err := fab.RDMAWrite(ctx.Sim(), cpuEP, dst.EndpointID(), nva, buf[:n]); err != nil {
				return ResilverResp{BytesCopied: copied, Err: err}
			}
			copied += n
		}
	}
	// Rewrite durable metadata on both devices (the returned device's
	// copy may be stale or empty) and reinstall region translations.
	if err := m.persist(ctx, st); err != nil {
		return ResilverResp{BytesCopied: copied, Err: err}
	}
	for _, name := range sortedOpen(st) {
		m.programRegion(st, name)
	}
	m.Resilvers++
	return ResilverResp{BytesCopied: copied}
}

// sortedOpen returns the names of open regions in sorted order. Window
// (re)programming appends to device address-translation tables, so the
// programming sequence must not follow map iteration order.
func sortedOpen(st *VolumeState) []string {
	names := make([]string, 0, len(st.OpenBy))
	//simlint:ordered -- collected into a slice and sorted below
	for name := range st.OpenBy {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// programManagement maps the metadata area of both devices for the PMM's
// current CPU only.
func (m *Manager) programManagement(ctx *cluster.PairCtx) {
	cpuEP := ctx.CPU().Endpoint().ID()
	for _, d := range m.devices() {
		ep := d.Endpoint()
		ep.UnmapWindow(0)
		ep.MapWindow(0, MetaBytes, d.Store(), 0, servernet.Perm{
			Read:       true,
			Write:      true,
			Initiators: map[servernet.EndpointID]bool{cpuEP: true},
		})
	}
}

// programRegion (re)installs the ATT entry for one region on both devices,
// granting access to exactly the CPUs that hold it open.
func (m *Manager) programRegion(st *VolumeState, name string) {
	r := st.Regions[name]
	if r == nil {
		return
	}
	base := uint32(r.Offset)
	set := st.OpenBy[name]
	var initiators map[servernet.EndpointID]bool
	if len(set) > 0 {
		initiators = make(map[servernet.EndpointID]bool, len(set))
		//simlint:ordered -- builds a lookup set; insertion order is invisible
		for cpu := range set {
			initiators[m.cl.CPU(cpu).Endpoint().ID()] = true
		}
	}
	for _, d := range m.devices() {
		ep := d.Endpoint()
		ep.UnmapWindow(base)
		if initiators != nil {
			ep.MapWindow(base, uint32(r.Size), d.Store(), r.Offset, servernet.Perm{
				Read: true, Write: true, Initiators: initiators,
			})
		}
	}
}

// persist durably writes the metadata to the next slot of every powered
// device, advancing the generation. It fails only if no device accepted
// the write.
func (m *Manager) persist(ctx *cluster.PairCtx, st *VolumeState) error {
	st.Gen++
	img, err := EncodeMeta(st)
	if err != nil {
		st.Gen--
		return err
	}
	fab := ctx.CPU().Fabric()
	from := ctx.CPU().Endpoint().ID()
	okCount := 0
	for _, d := range m.devices() {
		nva := uint32(slotOffset(st.Gen))
		if werr := fab.RDMAWrite(ctx.Sim(), from, d.EndpointID(), nva, img); werr == nil {
			okCount++
			m.MetaWrites++
		}
	}
	if okCount == 0 {
		st.Gen--
		return ErrVolumeDown
	}
	return nil
}

// checkpoint sends the full state to the backup (sized by a rough wire
// estimate; the PMM table is small).
func (m *Manager) checkpoint(ctx *cluster.PairCtx, st *VolumeState) {
	sz := 64
	//simlint:ordered -- commutative size sum
	for _, r := range st.Regions {
		sz += 32 + len(r.Name) + len(r.Owner)
	}
	ctx.Checkpoint(sz, st.Clone())
}

// recoverOrFormat performs a cold start: it tries to load valid metadata
// from either device (preferring the newest generation) and, finding
// none, formats the volume with a fresh empty table.
func (m *Manager) recoverOrFormat(ctx *cluster.PairCtx) *VolumeState {
	best := m.loadBest(ctx)
	if best != nil {
		m.Recoveries++
		best.OpenBy = make(map[string]map[int]bool) // opens do not survive restart
		return best
	}
	st := NewVolumeState(m.name)
	m.programManagement(ctx)
	if err := m.persist(ctx, st); err == nil {
		m.formatOK = true
	}
	m.checkpoint(ctx, st)
	return st
}

// loadBest reads all four metadata slots (two per device) over RDMA and
// returns the decoded state with the highest generation, or nil.
func (m *Manager) loadBest(ctx *cluster.PairCtx) *VolumeState {
	m.programManagement(ctx)
	fab := ctx.CPU().Fabric()
	from := ctx.CPU().Endpoint().ID()
	var best *VolumeState
	buf := make([]byte, MetaSlotBytes)
	for _, d := range m.devices() {
		for slot := uint64(0); slot < 2; slot++ {
			nva := uint32(slotOffset(slot))
			if err := fab.RDMARead(ctx.Sim(), from, d.EndpointID(), nva, buf); err != nil {
				continue
			}
			st, err := DecodeMeta(buf)
			if err != nil {
				continue
			}
			if best == nil || st.Gen > best.Gen {
				best = st
			}
		}
	}
	return best
}
