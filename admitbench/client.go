package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"time"
)

// reqHeader carries a request number in the traced run only, so the
// handler timing can be joined to the client's round trip afterwards.
const reqHeader = "X-Bench-Req"

// maxErrors bounds the failure messages a connection keeps for the report.
const maxErrors = 5

// conn is one sender: a single keep-alive HTTP connection, the acked
// placements of the tenants routed to it, and its failures.
type conn struct {
	id    int
	base  string
	gamma int
	tr    *http.Transport
	hc    *http.Client
	// hosts holds the servers acked for every live tenant of this
	// connection; departed holds every acked departure.
	hosts    map[int][]int
	departed map[int]bool
	// traced numbers each request and keeps it for the layer join.
	traced bool
	seq    uint64
	reqs   []tracedReq
	// attempts, fails and mutations count requests sent, requests that
	// failed, and acked admissions plus departures.
	attempts, fails, mutations int
	errs                       []string
}

// tracedReq is one request of the traced run, joined to the handler time,
// spans and engine time after the run.
type tracedReq struct {
	ID      uint64
	Kind    opKind
	RTT     time.Duration
	Tenants []tenantReq
}

func newConn(id int, base string, gamma int) *conn {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &conn{
		id: id, base: base, gamma: gamma, tr: tr,
		hc:       &http.Client{Transport: tr, Timeout: 30 * time.Second},
		hosts:    make(map[int][]int),
		departed: make(map[int]bool),
	}
}

func (c *conn) close() { c.tr.CloseIdleConnections() }

func (c *conn) fail(format string, args ...any) outcome {
	c.fails++
	if len(c.errs) < maxErrors {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
	return outcome{}
}

// placeReply is the body of a 201 admission or a 200 tenant read.
type placeReply struct {
	ID      int   `json:"id"`
	Servers []int `json:"servers"`
}

// batchReply is the body of a 200 batch admission.
type batchReply struct {
	Placed  int `json:"placed"`
	Failed  int `json:"failed"`
	Results []struct {
		ID      int   `json:"id"`
		Status  int   `json:"status"`
		Servers []int `json:"servers"`
	} `json:"results"`
}

// exec sends one operation and checks its response against the expected
// status and the placements acked earlier on this connection.
func (c *conn) exec(o op) outcome {
	var (
		method, path string
		body         []byte
		want         int
	)
	c.attempts++
	t0 := o.Tenants[0]
	switch o.Kind {
	case opAdmit:
		method, path, want = http.MethodPost, "/v1/tenants", http.StatusCreated
		body = appendTenant(nil, t0)
	case opBatch:
		method, path, want = http.MethodPost, "/v1/tenants:batch", http.StatusOK
		body = append(body, `{"tenants":[`...)
		for i, t := range o.Tenants {
			if i > 0 {
				body = append(body, ',')
			}
			body = appendTenant(body, t)
		}
		body = append(body, "]}"...)
	case opDepart:
		method, path, want = http.MethodDelete, "/v1/tenants/"+strconv.Itoa(t0.ID), http.StatusNoContent
	case opRead:
		method, path, want = http.MethodGet, "/v1/tenants/"+strconv.Itoa(t0.ID), http.StatusOK
	}
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return c.fail("%s %s: %v", method, path, err)
	}
	if c.traced {
		c.seq++
		req.Header.Set(reqHeader, strconv.FormatUint(c.reqID(), 10))
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return c.fail("%s %s: %v", method, path, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rtt := time.Since(start)
	if err != nil {
		return c.fail("%s %s: reading body: %v", method, path, err)
	}
	if resp.StatusCode != want {
		return c.fail("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, want, bytes.TrimSpace(data))
	}
	if c.traced {
		c.reqs = append(c.reqs, tracedReq{ID: c.reqID(), Kind: o.Kind, RTT: rtt, Tenants: o.Tenants})
	}
	res := outcome{RTT: rtt, OK: true}
	switch o.Kind {
	case opAdmit:
		var rep placeReply
		if err := json.Unmarshal(data, &rep); err != nil || rep.ID != t0.ID || len(rep.Servers) != c.gamma {
			return c.fail("admit %d: unexpected reply %s", t0.ID, data)
		}
		c.hosts[t0.ID] = rep.Servers
		res.Acked = 1
		c.mutations++
	case opBatch:
		var rep batchReply
		if err := json.Unmarshal(data, &rep); err != nil || rep.Failed != 0 || rep.Placed != len(o.Tenants) || len(rep.Results) != len(o.Tenants) {
			return c.fail("batch from %d: unexpected reply %.200s", t0.ID, data)
		}
		for i, r := range rep.Results {
			if r.Status != http.StatusCreated || r.ID != o.Tenants[i].ID || len(r.Servers) != c.gamma {
				return c.fail("batch item %d: status %d, servers %v", o.Tenants[i].ID, r.Status, r.Servers)
			}
			c.hosts[r.ID] = r.Servers
		}
		res.Acked = rep.Placed
		c.mutations += rep.Placed
	case opDepart:
		delete(c.hosts, t0.ID)
		c.departed[t0.ID] = true
		c.mutations++
	case opRead:
		var rep placeReply
		if err := json.Unmarshal(data, &rep); err != nil || rep.ID != t0.ID || !slices.Equal(rep.Servers, c.hosts[t0.ID]) {
			return c.fail("read %d: reply %s, acked servers %v", t0.ID, data, c.hosts[t0.ID])
		}
	}
	return res
}

// reqID numbers requests uniquely across connections.
func (c *conn) reqID() uint64 { return uint64(c.id)<<40 | c.seq }

func appendTenant(b []byte, t tenantReq) []byte {
	b = append(b, `{"id":`...)
	b = strconv.AppendInt(b, int64(t.ID), 10)
	b = append(b, `,"clients":`...)
	b = strconv.AppendInt(b, int64(t.Clients), 10)
	return append(b, '}')
}
