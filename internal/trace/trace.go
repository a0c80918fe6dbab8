// Package trace serializes placements to JSON for offline inspection,
// archival of experiment outcomes, and replay into fresh Placement values.
package trace

import (
	"encoding/json"
	"fmt"
	"io"

	"cubefit/internal/packing"
)

// Snapshot is the JSON form of a placement.
type Snapshot struct {
	Gamma   int              `json:"gamma"`
	Servers []ServerSnapshot `json:"servers"`
	Tenants []TenantSnapshot `json:"tenants"`
}

// ServerSnapshot is one server and its hosted replicas.
type ServerSnapshot struct {
	ID       int               `json:"id"`
	Level    float64           `json:"level"`
	Replicas []ReplicaSnapshot `json:"replicas,omitempty"`
}

// ReplicaSnapshot is one hosted replica.
type ReplicaSnapshot struct {
	Tenant  int     `json:"tenant"`
	Index   int     `json:"index"`
	Size    float64 `json:"size"`
	Clients int     `json:"clients,omitempty"`
}

// TenantSnapshot is one tenant's identity and load.
type TenantSnapshot struct {
	ID      int     `json:"id"`
	Load    float64 `json:"load"`
	Clients int     `json:"clients,omitempty"`
}

// Capture builds a snapshot of the placement.
func Capture(p *packing.Placement) Snapshot {
	snap := Snapshot{Gamma: p.Gamma()}
	for _, s := range p.Servers() {
		ss := ServerSnapshot{ID: s.ID(), Level: s.Level()}
		for _, r := range s.Replicas() {
			ss.Replicas = append(ss.Replicas, ReplicaSnapshot{
				Tenant:  int(r.Tenant),
				Index:   r.Index,
				Size:    r.Size,
				Clients: r.Clients,
			})
		}
		snap.Servers = append(snap.Servers, ss)
	}
	for _, t := range p.Tenants() {
		snap.Tenants = append(snap.Tenants, TenantSnapshot{
			ID:      int(t.ID),
			Load:    t.Load,
			Clients: t.Clients,
		})
	}
	return snap
}

// Write encodes the placement as indented JSON.
func Write(w io.Writer, p *packing.Placement) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(Capture(p))
}

// Read decodes a snapshot.
func Read(r io.Reader) (Snapshot, error) {
	var snap Snapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return Snapshot{}, fmt.Errorf("trace: decode: %w", err)
	}
	return snap, nil
}

// MaxGamma bounds the replication factor Restore accepts. Every tenant
// reserves γ host slots, so an unbounded γ from an untrusted snapshot
// would exhaust memory; the engines replicate far less (core caps γ at 9).
const MaxGamma = 64

// Restore rebuilds a Placement from a snapshot. The result carries the
// same servers, tenants and replica assignments. The snapshot must list
// servers 0..n-1, each once and in any order, as Capture does: server IDs
// are preserved by opening n servers, so an ID outside [0, n) or a
// repeated one is refused rather than trusted to size the placement.
func Restore(snap Snapshot) (*packing.Placement, error) {
	if snap.Gamma > MaxGamma {
		return nil, fmt.Errorf("trace: replication factor %d exceeds %d", snap.Gamma, MaxGamma)
	}
	p, err := packing.NewPlacement(snap.Gamma)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	listed := make([]bool, len(snap.Servers))
	for _, s := range snap.Servers {
		if s.ID < 0 || s.ID >= len(snap.Servers) {
			return nil, fmt.Errorf("trace: server id %d outside [0, %d)", s.ID, len(snap.Servers))
		}
		if listed[s.ID] {
			return nil, fmt.Errorf("trace: server id %d listed twice", s.ID)
		}
		listed[s.ID] = true
		p.OpenServer()
	}
	for _, t := range snap.Tenants {
		tn := packing.Tenant{ID: packing.TenantID(t.ID), Load: t.Load, Clients: t.Clients}
		if err := p.AddTenant(tn); err != nil {
			return nil, fmt.Errorf("trace: tenant %d: %w", t.ID, err)
		}
	}
	for _, s := range snap.Servers {
		for _, r := range s.Replicas {
			rep := packing.Replica{
				Tenant:  packing.TenantID(r.Tenant),
				Index:   r.Index,
				Size:    r.Size,
				Clients: r.Clients,
			}
			if err := p.Place(s.ID, rep); err != nil {
				return nil, fmt.Errorf("trace: replica %d/%d on %d: %w", r.Tenant, r.Index, s.ID, err)
			}
		}
	}
	return p, nil
}
