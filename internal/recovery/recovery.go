// Package recovery rebuilds a consolidation engine from its write-ahead
// operation log (internal/obs.WAL: one record per committed admission,
// rejection or departure, group-committed by the service layer before
// the operations it covers are acked). It is the crash-recovery path of
// cubefit-server.
//
// Recovery re-drives a fresh engine through the exact operation sequence
// the log records — every admission (including rejected ones, whose
// failed admissions still open servers) and every departure, in log
// order. Because the engines are deterministic, the rebuilt engine
// reproduces the pre-crash placement, cube cursors, bin lifecycle, and
// Stats byte for byte. Each admission record carries the servers its
// replicas were acked on, so Rebuild checks every re-placed tenant
// against them and stops at the first operation that diverges, naming
// it. A torn final record belongs to an operation that was never acked
// and is dropped.
//
// Verify then holds the rebuilt placement to the robustness validator
// and to the log's end state, so a server refuses to serve from a log
// that does not replay cleanly.
package recovery

import (
	"errors"
	"fmt"
	"os"
	"slices"

	"cubefit/internal/core"
	"cubefit/internal/obs"
	"cubefit/internal/packing"
)

// Stats summarizes one recovery for operator logging.
type Stats struct {
	// Ops is the number of operation records replayed.
	Ops int
	// Admitted, Rejected and Departed count the re-driven operations.
	Admitted int
	Rejected int
	Departed int
	// Torn reports that the log ended in a truncated record (a crash
	// mid-write); the torn tail was never acked and is discarded.
	Torn bool
	// CommittedBytes is the byte offset of the end of the last complete
	// record in the log file (0 when there is none). A torn tail lies
	// past it and must be truncated (obs.TruncateWAL) before the server
	// appends new records, or the next boot reads a corrupt record.
	CommittedBytes int64
}

// FromFile reads the write-ahead log at path, rebuilds an engine with the
// given configuration, and verifies the result before returning it. A
// missing file is not an error: recovery of an empty log returns a fresh
// engine.
func FromFile(path string, cfg core.Config) (*core.CubeFit, Stats, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		cf, nerr := core.New(cfg)
		return cf, Stats{}, nerr
	}
	if err != nil {
		return nil, Stats{}, fmt.Errorf("recovery: %w", err)
	}
	//cubefit:vet-allow failclosed -- handle opened read-only; closing it cannot lose acknowledged bytes
	defer f.Close()
	ops, ends, torn, err := obs.ReadWALOffsets(f)
	if err != nil {
		return nil, Stats{}, fmt.Errorf("recovery: %w", err)
	}
	cf, st, err := Rebuild(ops, cfg)
	if err != nil {
		return nil, Stats{}, err
	}
	st.Torn = torn
	if len(ends) > 0 {
		st.CommittedBytes = ends[len(ends)-1]
	}
	if err := Verify(cf, ops); err != nil {
		return nil, Stats{}, err
	}
	return cf, st, nil
}

// Rebuild re-drives a fresh engine through the logged operations and
// checks each against its record: a rejection must replay rejected, and
// an admission must replay admitted onto exactly the recorded servers.
// The first divergence fails the rebuild with the operation's 1-based
// index. The replication factor is taken from the first admission's
// server count and must match cfg. The engine is built without a
// recorder attached, so recovery does not re-log history; callers attach
// sinks afterwards.
func Rebuild(ops []obs.Op, cfg core.Config) (*core.CubeFit, Stats, error) {
	cf, err := core.New(cfg)
	if err != nil {
		return nil, Stats{}, err
	}
	if i := slices.IndexFunc(ops, func(o obs.Op) bool { return o.Kind == obs.OpAdmit }); i >= 0 {
		if n := len(ops[i].Servers); n != cf.Config().Gamma {
			return nil, Stats{}, fmt.Errorf("recovery: log was written at γ=%d, engine configured with γ=%d", n, cf.Config().Gamma)
		}
	}
	st := Stats{Ops: len(ops)}
	var hosts []int
	for i, o := range ops {
		id := packing.TenantID(o.Tenant)
		if o.Kind == obs.OpDepart {
			if err := cf.Remove(id); err != nil {
				return nil, Stats{}, fmt.Errorf("recovery: op %d: depart tenant %d: %w", i+1, o.Tenant, err)
			}
			st.Departed++
			continue
		}
		err := cf.Place(packing.Tenant{ID: id, Load: o.Load, Clients: o.Clients})
		switch {
		case err == nil && o.Kind == obs.OpReject:
			return nil, Stats{}, fmt.Errorf("recovery: op %d: tenant %d was rejected in the log but replays as admitted", i+1, o.Tenant)
		case err != nil && o.Kind == obs.OpAdmit:
			return nil, Stats{}, fmt.Errorf("recovery: op %d: tenant %d was admitted in the log but replays rejected: %w", i+1, o.Tenant, err)
		case err != nil:
			st.Rejected++
			continue
		}
		hosts = cf.Placement().TenantHostsInto(id, hosts)
		if !slices.Equal(hosts, o.Servers) {
			return nil, Stats{}, fmt.Errorf("recovery: op %d: tenant %d replays onto servers %v but the log recorded %v; refusing to serve from this log", i+1, o.Tenant, hosts, o.Servers)
		}
		st.Admitted++
	}
	return cf, st, nil
}

// Verify checks a rebuilt engine against the log it was rebuilt from: the
// placement must satisfy the robustness validator, and it must hold
// exactly the tenants the log leaves admitted, each on the servers of its
// last admission record.
func Verify(cf *core.CubeFit, ops []obs.Op) error {
	p := cf.Placement()
	if err := p.Validate(); err != nil {
		return fmt.Errorf("recovery: rebuilt placement fails validation: %w", err)
	}
	last := make(map[int]int) // live tenant -> index of its admission
	for i, o := range ops {
		switch o.Kind {
		case obs.OpAdmit:
			last[o.Tenant] = i
		case obs.OpDepart:
			delete(last, o.Tenant)
		}
	}
	if len(last) != p.NumTenants() {
		return fmt.Errorf("recovery: rebuilt engine holds %d tenants, the log leaves %d", p.NumTenants(), len(last))
	}
	var hosts []int
	for i, o := range ops {
		if j, live := last[o.Tenant]; o.Kind != obs.OpAdmit || !live || j != i {
			continue
		}
		hosts = p.TenantHostsInto(packing.TenantID(o.Tenant), hosts)
		if !slices.Equal(hosts, o.Servers) {
			return fmt.Errorf("recovery: tenant %d is hosted on %v, the log's op %d recorded %v", o.Tenant, hosts, i+1, o.Servers)
		}
	}
	return nil
}
