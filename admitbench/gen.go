package main

import (
	"fmt"
	"time"

	"cubefit/internal/rng"
	"cubefit/internal/workload"
)

// opKind is the type of one generated request.
type opKind uint8

const (
	// opAdmit is POST /v1/tenants (one tenant).
	opAdmit opKind = iota
	// opBatch is POST /v1/tenants:batch; one request counts once.
	opBatch
	// opDepart is DELETE /v1/tenants/{id}.
	opDepart
	// opRead is GET /v1/tenants/{id}.
	opRead
	numOpKinds
)

// isAdmit reports whether the operation admits tenants; single and batch
// admissions both report under the admit_* latency metrics.
func (k opKind) isAdmit() bool { return k == opAdmit || k == opBatch }

// tenantReq is one tenant of an admission request.
type tenantReq struct {
	ID      int
	Clients int
}

// op is one generated request. Every request touching a tenant is routed
// to connection ID % conns, so a tenant's admission, reads and departure
// travel one connection in generation order and never race each other.
type op struct {
	Kind opKind
	// Due is the open-loop send time, relative to the start of the timed
	// phase (zero in a closed loop).
	Due time.Duration
	// Tenants holds the admitted tenants (one for opAdmit, the batch for
	// opBatch) or the single target of a read or departure.
	Tenants []tenantReq
}

// churnSpec shapes an open-loop churn workload.
type churnSpec struct {
	// Population is the number of live tenants, prefilled in set-up and
	// held constant by the admit/depart mix.
	Population int
	// Rate is the offered load in operations per second.
	Rate float64
	// Duration is the span of the arrival schedule.
	Duration time.Duration
}

// churnLoad is a generated churn workload: the prefill admitted in set-up
// (per connection, in batches) and the timed operations per connection.
type churnLoad struct {
	Prefill [][]op
	Ops     [][]op
}

// churnBlock is the operation mix, drawn as a shuffled block of four so
// that every four operations hold exactly one admission and one departure:
// the population never strays more than one tenant from its target.
var churnBlock = [4]opKind{opAdmit, opDepart, opRead, opRead}

// zipfClients is the churn workloads' client-count distribution (the
// paper's zipf(3) over 1..52 clients).
func zipfClients() workload.Distribution {
	z, err := workload.NewZipf(3, workload.MaxClientsPerServer)
	if err != nil {
		panic(fmt.Sprintf("zipf(3) distribution: %v", err)) // constant arguments
	}
	return z
}

// uniformClients is the batch workload's client-count distribution (the
// paper's uniform 1..15 clients).
func uniformClients() workload.Distribution {
	u, err := workload.NewUniform(1, 15)
	if err != nil {
		panic(fmt.Sprintf("uniform(1..15) distribution: %v", err)) // constant arguments
	}
	return u
}

// liveSet is the generator's view of the live tenants, with O(1) random
// pick and removal.
type liveSet struct {
	ids []int
	pos map[int]int
}

func newLiveSet(capacity int) *liveSet {
	return &liveSet{ids: make([]int, 0, capacity), pos: make(map[int]int, capacity)}
}

func (s *liveSet) add(id int) {
	s.pos[id] = len(s.ids)
	s.ids = append(s.ids, id)
}

func (s *liveSet) remove(id int) {
	i := s.pos[id]
	last := s.ids[len(s.ids)-1]
	s.ids[i] = last
	s.pos[last] = i
	s.ids = s.ids[:len(s.ids)-1]
	delete(s.pos, id)
}

func (s *liveSet) pick(r *rng.RNG) int { return s.ids[r.Intn(len(s.ids))] }

// genChurn generates a churn workload from seed: a prefill of
// spec.Population tenants with zipf(3) client counts, then Poisson
// arrivals at spec.Rate for spec.Duration, mixed 25% admit, 25% depart of
// a random live tenant, 50% read of a random live tenant.
func genChurn(seed uint64, spec churnSpec) churnLoad {
	r := rng.New(seed)
	dist := zipfClients()
	live := newLiveSet(spec.Population + 1)
	conn := func(id int) int { return id % conns }
	load := churnLoad{Prefill: make([][]op, conns), Ops: make([][]op, conns)}

	perConn := make([][]tenantReq, conns)
	for id := 0; id < spec.Population; id++ {
		perConn[conn(id)] = append(perConn[conn(id)], tenantReq{ID: id, Clients: dist.Sample(r)})
		live.add(id)
	}
	for c, ts := range perConn {
		load.Prefill[c] = batchOps(ts, batchSize)
	}

	next := spec.Population
	var due time.Duration
	block := churnBlock
	for i := 0; ; i++ {
		if i%len(block) == 0 {
			r.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		due += time.Duration(r.ExpFloat64(float64(time.Second) / spec.Rate))
		if due >= spec.Duration {
			break
		}
		o := op{Kind: block[i%len(block)], Due: due}
		switch o.Kind {
		case opAdmit:
			o.Tenants = []tenantReq{{ID: next, Clients: dist.Sample(r)}}
			live.add(next)
			next++
		case opDepart:
			id := live.pick(r)
			live.remove(id)
			o.Tenants = []tenantReq{{ID: id}}
		case opRead:
			o.Tenants = []tenantReq{{ID: live.pick(r)}}
		}
		c := conn(o.Tenants[0].ID)
		load.Ops[c] = append(load.Ops[c], o)
	}
	return load
}

// batchSpec shapes one batch-onboard round.
type batchSpec struct {
	// Tenants is the number admitted per round, in batches of batchSize.
	Tenants int
	// Reads and Departs size the read-back and offboarding tail.
	Reads, Departs int
}

// batchRound is one generated batch-onboard round: closed-loop batch
// admissions per connection, then a closed-loop tail of reads and
// departures of admitted tenants.
type batchRound struct {
	Admit [][]op
	Tail  [][]op
}

// genBatchRound generates one batch-onboard round from r: spec.Tenants
// tenants with uniform(1..15) client counts, where connection c sends the
// tenants with ID % conns == c in batches of batchSize; then reads of
// spec.Reads distinct random tenants and departures of spec.Departs
// distinct random tenants, interleaved in random order.
func genBatchRound(r *rng.RNG, spec batchSpec) batchRound {
	dist := uniformClients()
	round := batchRound{Admit: make([][]op, conns), Tail: make([][]op, conns)}
	perConn := make([][]tenantReq, conns)
	for id := 0; id < spec.Tenants; id++ {
		c := id % conns
		perConn[c] = append(perConn[c], tenantReq{ID: id, Clients: dist.Sample(r)})
	}
	for c, ts := range perConn {
		round.Admit[c] = batchOps(ts, batchSize)
	}
	// Reads take the head of one permutation and departures its tail, so
	// no tenant is read after it departed.
	perm := r.Perm(spec.Tenants)
	tail := make([]op, 0, spec.Reads+spec.Departs)
	for _, id := range perm[:spec.Reads] {
		tail = append(tail, op{Kind: opRead, Tenants: []tenantReq{{ID: id}}})
	}
	for _, id := range perm[len(perm)-spec.Departs:] {
		tail = append(tail, op{Kind: opDepart, Tenants: []tenantReq{{ID: id}}})
	}
	r.Shuffle(len(tail), func(a, b int) { tail[a], tail[b] = tail[b], tail[a] })
	for _, o := range tail {
		c := o.Tenants[0].ID % conns
		round.Tail[c] = append(round.Tail[c], o)
	}
	return round
}

// batchOps splits tenants into batch admissions of at most size tenants.
func batchOps(ts []tenantReq, size int) []op {
	ops := make([]op, 0, (len(ts)+size-1)/size)
	for len(ts) > 0 {
		n := min(size, len(ts))
		ops = append(ops, op{Kind: opBatch, Tenants: ts[:n:n]})
		ts = ts[n:]
	}
	return ops
}
