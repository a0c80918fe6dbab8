package obs

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
)

// walBufferSize is the in-memory staging buffer of a WAL. Records are
// encoded into it as operations close and reach the underlying writer in
// one burst per Sync (group commit); bufio flushes early only when a
// batch outgrows the buffer.
const walBufferSize = 1 << 20

// ErrWALClosed is the sticky error of a WAL that was closed; admissions
// recorded afterwards are rejected, not silently dropped.
var ErrWALClosed = errors.New("obs: wal closed")

// Syncer is the durability hook of a WAL's underlying writer. *os.File
// implements it; writers without a Sync method (buffers in tests) are
// treated as durable on flush.
type Syncer interface {
	Sync() error
}

// CommitLog is the durability seam of the admission pipeline: a Recorder
// whose group commit (Sync) makes every previously recorded event durable
// before the admissions it covers are acked, with sticky fail-closed
// error reporting. *WAL is the log; the api.Controller depends only on
// this interface, so wrappers that observe or fault the commit (load
// harnesses, tests) plug in without touching the pipeline.
type CommitLog interface {
	Recorder
	// Sync makes every recorded event durable (group commit) and returns
	// the sticky error, if any.
	Sync() error
	// Err returns the sticky error, if any; callers on the admission path
	// must fail closed on a non-nil value.
	Err() error
	// Failed reports sticky commit failure without taking the commit
	// lock, so health sampling survives a hung fsync.
	Failed() bool
	// Close performs a final commit and releases the underlying files.
	Close() error
}

var _ CommitLog = (*WAL)(nil)

// OpKind names a committed operation. It is the first byte of the
// operation's log record.
type OpKind byte

// The operations of the write-ahead log.
const (
	// OpAdmit is an admission: tenant, load, clients and the servers
	// hosting its replicas, in replica order.
	OpAdmit OpKind = 'A'
	// OpReject is a rejected admission: tenant, load and clients. Its
	// replay still matters, because a failed admission can open servers.
	OpReject OpKind = 'R'
	// OpDepart is a tenant departure: tenant.
	OpDepart OpKind = 'D'
)

// Op is one committed operation of the write-ahead log, everything
// recovery needs to re-drive the engine through it and check the result.
type Op struct {
	Kind    OpKind
	Tenant  int
	Load    float64 // OpAdmit and OpReject
	Clients int     // OpAdmit and OpReject
	Servers []int   // OpAdmit: the host of each replica, by replica index
}

// WAL is the write-ahead operation log: one record per committed
// admission, rejection or departure, staged in an in-memory buffer as the
// engine closes each operation, and made durable by a group commit (Sync)
// that pushes the accumulated batch to the underlying writer and fsyncs
// it before the operations it covers are acked.
//
// The WAL is a Recorder on the engine's decision event stream, but it
// keeps only what recovery needs. An attempt event opens the admission,
// the place events fill in its hosts by replica index, a rollback clears
// them (a first-stage fallback re-places every replica), and the closing
// admit or reject writes the record. A depart event writes its record at
// once. Every other kind returns before taking the lock: the full
// decision trace stays in the ring and the JSONL recorder.
//
// A record is one line, fields separated by single spaces:
//
//	A <tenant> <load> <clients> <server>...
//	R <tenant> <load> <clients>
//	D <tenant>
//
// Integers are decimal without leading zeros, and the load is the
// shortest decimal that round-trips the float64 (strconv 'g', -1), so
// each operation has exactly one encoding and the reader accepts nothing
// else. The first byte tells a record from a line of the v1 log, which
// stored the whole decision trace as JSON events; ReadWALOffsets refuses
// such a log (ErrWALV1).
//
// Error handling is sticky and fail-closed: after the first write, flush,
// or sync error — or an event sequence the log cannot describe, such as
// an admit without its attempt — every subsequent Record is dropped and
// every Sync returns the original error, so a full disk surfaces as
// failed admissions rather than a log silently missing its tail. Err
// exposes the state for callers that want to refuse work before mutating
// anything.
//
// WAL is safe for concurrent use, though admissions must reach it one at
// a time (the controller's placer is its only writer).
type WAL struct {
	mu sync.Mutex
	//cubefit:guarded-by mu
	bw   *bufio.Writer
	sync Syncer // nil when the writer has no Sync method; set at construction only
	cl   io.Closer
	// open marks an admission between its attempt and its admit or
	// reject; pending holds its tenant and hostBuf its hosts by replica
	// index (Unset until placed). lineBuf is the reused encode buffer.
	//cubefit:guarded-by mu
	open bool
	//cubefit:guarded-by mu
	pending Op
	//cubefit:guarded-by mu
	hostBuf []int
	//cubefit:guarded-by mu
	lineBuf []byte
	// n counts records accepted into the buffer; synced counts records
	// covered by a completed Sync, i.e. durable.
	//cubefit:guarded-by mu
	n uint64
	//cubefit:guarded-by mu
	synced uint64
	//cubefit:guarded-by mu
	err error
	// failed mirrors "err holds a commit error" without the mutex, so
	// health sampling can observe fail-closed state even while a group
	// commit is blocked inside the underlying Sync (a hung fsync must not
	// freeze the monitor). A clean Close does not set it.
	failed atomic.Bool
	// closed is tracked separately from the sticky err: a write error
	// must not make Close lose its run-once guarantee (double-closing
	// the underlying file) just because err already holds something.
	//cubefit:guarded-by mu
	closed bool
}

// NewWAL returns a write-ahead log over w. If w implements Syncer
// (*os.File does), Sync pushes flushed bytes to stable storage; if it
// implements io.Closer, Close closes it after the final flush.
func NewWAL(w io.Writer) *WAL {
	wal := &WAL{bw: bufio.NewWriterSize(w, walBufferSize)}
	if s, ok := w.(Syncer); ok {
		wal.sync = s
	}
	if c, ok := w.(io.Closer); ok {
		wal.cl = c
	}
	return wal
}

// OpenWAL opens (creating if needed) the write-ahead log at path for
// appending. Recovery reads the existing contents before the server
// starts appending new records to the same file.
func OpenWAL(path string) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("obs: open wal: %w", err)
	}
	return NewWAL(f), nil
}

// Record implements Recorder: admit, reject and depart events stage one
// record each, which becomes durable once a subsequent Sync completes;
// attempt, place and rollback events track the open admission; every
// other kind is ignored.
//
//cubefit:hotpath
func (w *WAL) Record(e Event) {
	switch e.Kind {
	case KindAttempt, KindPlace, KindStage1Place, KindCubePlace, KindRollback, KindAdmit, KindReject, KindDepart:
	default:
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return
	}
	switch e.Kind {
	case KindAttempt:
		w.open = true
		w.pending = Op{Tenant: e.Tenant, Load: e.Size, Clients: e.Clients}
		w.hostBuf = w.hostBuf[:0]
	case KindRollback:
		w.hostBuf = w.hostBuf[:0]
	case KindPlace, KindStage1Place, KindCubePlace:
		if !w.open || e.Tenant != w.pending.Tenant || e.Replica < 0 || e.Replica >= maxReplicas {
			w.protocolLocked(e)
			return
		}
		for len(w.hostBuf) <= e.Replica {
			w.hostBuf = append(w.hostBuf, Unset)
		}
		w.hostBuf[e.Replica] = e.Server
	case KindAdmit, KindReject:
		if !w.open || e.Tenant != w.pending.Tenant {
			w.protocolLocked(e)
			return
		}
		w.open = false
		w.pending.Kind, w.pending.Servers = OpReject, nil
		if e.Kind == KindAdmit {
			w.pending.Kind, w.pending.Servers = OpAdmit, w.hostBuf
			if len(w.hostBuf) == 0 || slices.Contains(w.hostBuf, Unset) {
				w.protocolLocked(e)
				return
			}
		}
		w.writeLocked(w.pending)
	case KindDepart:
		w.writeLocked(Op{Kind: OpDepart, Tenant: e.Tenant})
	}
}

// maxReplicas bounds the replica index the WAL tracks; the engines
// replicate far less (core caps γ at 9).
const maxReplicas = 64

// writeLocked encodes op into the staging buffer.
//
//cubefit:hotpath
func (w *WAL) writeLocked(op Op) {
	w.lineBuf = appendOp(w.lineBuf[:0], op)
	if len(w.lineBuf) > maxWALLine {
		w.failLocked(errRecordTooLong)
		return
	}
	if _, err := w.bw.Write(w.lineBuf); err != nil {
		w.failLocked(err)
		return
	}
	w.n++
}

// errRecordTooLong refuses a record the reader would reject.
var errRecordTooLong = fmt.Errorf("record exceeds %d bytes", maxWALLine)

// failLocked makes a write error sticky.
func (w *WAL) failLocked(err error) {
	w.err = fmt.Errorf("obs: wal write: %w", err)
	w.failed.Store(true)
}

// protocolLocked fails the log closed on an event sequence it cannot turn
// into records, such as an admit without its attempt or with a replica
// left unplaced: logging a guess would let recovery rebuild a state that
// was never acked.
func (w *WAL) protocolLocked(e Event) {
	w.failLocked(fmt.Errorf("%s event for tenant %d (replica %d) outside a complete admission", e.Kind, e.Tenant, e.Replica))
}

// appendOp appends op's record, newline included, to buf.
//
//cubefit:hotpath
func appendOp(buf []byte, op Op) []byte {
	buf = append(buf, byte(op.Kind), ' ')
	buf = strconv.AppendInt(buf, int64(op.Tenant), 10)
	if op.Kind != OpDepart {
		buf = append(buf, ' ')
		buf = strconv.AppendFloat(buf, op.Load, 'g', -1, 64)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(op.Clients), 10)
		for _, s := range op.Servers {
			buf = append(buf, ' ')
			buf = strconv.AppendInt(buf, int64(s), 10)
		}
	}
	return append(buf, '\n')
}

// Sync is the group commit: it flushes the staging buffer and syncs the
// underlying writer, making every previously recorded operation durable.
// It returns the sticky error, if any, so callers can refuse to ack
// operations whose records may not have reached stable storage.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.syncLocked()
}

func (w *WAL) syncLocked() error {
	if w.err != nil {
		return w.err
	}
	if err := w.bw.Flush(); err != nil {
		w.err = fmt.Errorf("obs: wal flush: %w", err)
		w.failed.Store(true)
		return w.err
	}
	if w.sync != nil {
		if err := w.sync.Sync(); err != nil {
			w.err = fmt.Errorf("obs: wal sync: %w", err)
			w.failed.Store(true)
			return w.err
		}
	}
	w.synced = w.n
	return nil
}

// Err returns the sticky error, if any. A non-nil value means records
// have been or would be dropped: callers on the admission path must fail
// closed rather than proceed unlogged.
func (w *WAL) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Count returns the number of records accepted into the log, durable or
// still staged.
func (w *WAL) Count() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.n
}

// Synced returns the number of records made durable by a completed Sync.
func (w *WAL) Synced() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.synced
}

// maxWALLine bounds one record, newline included. The longest record the
// engines write — γ ≤ 9 hosts, every integer at full int64 width, a
// 24-byte load — is under 300 bytes.
const maxWALLine = 512

// ErrWALV1 reports a log in the v1 format, which stored the decision
// event trace as JSON lines. This build reads only operation records and
// does not convert: keep serving from the release that wrote the log, or
// move the log aside and start from an empty one.
var ErrWALV1 = errors.New("obs: wal is in the v1 event-JSON format, which this build no longer reads; " +
	"run the release that wrote it, or move it aside to start from an empty log")

// ReadWALOffsets decodes a write-ahead log into its operations and
// reports each record's end position: ends[i] is the byte offset just
// past op i's terminating newline, i.e. the size the file would have if
// truncated immediately after that record. Recovery uses the offsets to
// cut a torn tail at a record boundary (see TruncateWAL).
//
// A crash can leave the last record truncated or missing its newline;
// that tail belongs to an operation that was never acked, so it is
// dropped rather than failing recovery, and torn reports it. The newline
// is part of the record: a final line without one — even one that would
// parse — is never trusted. A malformed record anywhere before the final
// line fails, because it indicates corruption rather than a clean
// truncation, and so does a line of the v1 format anywhere (ErrWALV1).
func ReadWALOffsets(r io.Reader) (ops []Op, ends []int64, torn bool, err error) {
	br := bufio.NewReaderSize(r, 64*1024)
	var (
		off  int64
		line int
	)
	for {
		raw, rerr := br.ReadSlice('\n')
		if rerr != nil && rerr != io.EOF && rerr != bufio.ErrBufferFull {
			return nil, nil, false, fmt.Errorf("obs: wal read: %w", rerr)
		}
		if len(raw) == 0 {
			// Clean EOF exactly at a record boundary.
			return ops, ends, false, nil
		}
		line++
		if len(raw) > maxWALLine {
			return nil, nil, false, fmt.Errorf("obs: wal record %d exceeds %d bytes", line, maxWALLine)
		}
		if raw[0] == '{' {
			return nil, nil, false, fmt.Errorf("obs: wal record %d: %w", line, ErrWALV1)
		}
		if rerr == io.EOF {
			// Unterminated final chunk: torn regardless of content.
			return ops, ends, true, nil
		}
		off += int64(len(raw))
		op, perr := parseOp(raw[:len(raw)-1])
		if perr != nil {
			// A bad final record is a torn tail; anywhere earlier it is
			// corruption.
			if _, peekErr := br.Peek(1); peekErr == io.EOF {
				return ops, ends, true, nil
			}
			return nil, nil, false, fmt.Errorf("obs: wal record %d: %w", line, perr)
		}
		ops = append(ops, op)
		ends = append(ends, off)
	}
}

// parseOp decodes one record, newline stripped. It accepts exactly the
// bytes appendOp writes for the operation it returns, nothing else.
func parseOp(data []byte) (Op, error) {
	if len(data) < 3 || data[1] != ' ' {
		return Op{}, errors.New("malformed record")
	}
	op := Op{Kind: OpKind(data[0])}
	switch op.Kind {
	case OpAdmit, OpReject, OpDepart:
	default:
		return Op{}, fmt.Errorf("unknown operation %q", data[0])
	}
	f, rest := cutField(data[2:])
	var ok bool
	if op.Tenant, ok = parseInt(f); !ok {
		return Op{}, fmt.Errorf("bad tenant %q", f)
	}
	if op.Kind == OpDepart {
		if rest != nil {
			return Op{}, errors.New("trailing fields after departure")
		}
		return op, nil
	}
	f, rest = cutField(rest)
	if op.Load, ok = parseLoad(f); !ok {
		return Op{}, fmt.Errorf("bad load %q", f)
	}
	f, rest = cutField(rest)
	if op.Clients, ok = parseInt(f); !ok {
		return Op{}, fmt.Errorf("bad clients %q", f)
	}
	if op.Kind == OpReject {
		if rest != nil {
			return Op{}, errors.New("trailing fields after rejection")
		}
		return op, nil
	}
	if rest == nil {
		return Op{}, errors.New("admission without servers")
	}
	op.Servers = make([]int, 0, bytes.Count(rest, []byte{' '})+1)
	for rest != nil {
		f, rest = cutField(rest)
		s, ok := parseInt(f)
		if !ok || s < 0 {
			return Op{}, fmt.Errorf("bad server %q", f)
		}
		op.Servers = append(op.Servers, s)
	}
	return op, nil
}

// cutField splits b at its first space. rest is nil when b holds no
// space, and empty (not nil) when the space ends b, so a trailing space
// reads as an empty — invalid — final field.
func cutField(b []byte) (field, rest []byte) {
	if i := bytes.IndexByte(b, ' '); i >= 0 {
		return b[:i], b[i+1:]
	}
	return b, nil
}

// parseInt decodes a canonical decimal integer: an optional minus sign
// and digits, with no leading zero other than "0" itself and no "-0".
func parseInt(b []byte) (int, bool) {
	neg := len(b) > 0 && b[0] == '-'
	digits := b
	if neg {
		digits = b[1:]
	}
	if len(digits) == 0 || len(digits) > 19 || (digits[0] == '0' && (len(digits) > 1 || neg)) {
		return 0, false
	}
	var u uint64
	for _, c := range digits {
		if c < '0' || c > '9' {
			return 0, false
		}
		u = u*10 + uint64(c-'0')
	}
	switch {
	case !neg && u <= math.MaxInt:
		return int(u), true
	case neg && u <= math.MaxInt:
		return -int(u), true
	case neg && u == math.MaxInt+1:
		return math.MinInt, true
	}
	return 0, false
}

// parseLoad decodes a load written by strconv.AppendFloat(…, 'g', -1,
// 64), refusing every other spelling of the same value.
func parseLoad(b []byte) (float64, bool) {
	if len(b) == 0 || len(b) > 32 {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		return 0, false
	}
	var canon [32]byte
	return v, bytes.Equal(strconv.AppendFloat(canon[:0], v, 'g', -1, 64), b)
}

// TruncateWAL cuts the log at path down to size bytes — the committed
// prefix reported by recovery, which ends with the last complete record —
// and returns the number of bytes removed. The cut removes a torn tail
// (a partial record, or a complete one missing its newline): appending
// fresh records after it would glue the first of them onto the torn bytes
// and the next boot would read a corrupt record. A missing file is fine
// when size is 0; a file shorter than size is an error, since the
// committed prefix must still be present.
func TruncateWAL(path string, size int64) (removed int64, err error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if errors.Is(err, os.ErrNotExist) && size == 0 {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("obs: truncate wal: %w", err)
	}
	defer func() {
		// The handle mutated the log, so a failed close may hide a failed
		// write-back; it joins the result rather than vanishing.
		if cerr := f.Close(); err == nil && cerr != nil {
			removed, err = 0, fmt.Errorf("obs: truncate wal: %w", cerr)
		}
	}()
	cur, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return 0, fmt.Errorf("obs: truncate wal: %w", err)
	}
	if cur < size {
		return 0, fmt.Errorf("obs: truncate wal: %s is %d bytes, shorter than committed prefix %d", path, cur, size)
	}
	if cur == size {
		return 0, nil
	}
	if err := f.Truncate(size); err != nil {
		return 0, fmt.Errorf("obs: truncate wal: %w", err)
	}
	return cur - size, f.Sync()
}

// Close performs a final group commit and closes the underlying writer
// (when it is closable). Further records are dropped and syncs report
// ErrWALClosed; the first Close reports the commit-and-close outcome and
// later calls return nil — including when a sticky write error predates
// the close, so a retried shutdown never double-closes the writer.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	err := w.syncLocked()
	if w.cl != nil {
		if cerr := w.cl.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("obs: wal close: %w", cerr)
		}
	}
	if w.err == nil {
		// A clean close is not a commit failure: Failed stays false.
		w.err = ErrWALClosed
	}
	return err
}

// Failed reports whether the log carries a sticky commit error (write,
// flush, or sync failure — not a clean Close). Unlike Err it never takes
// the WAL lock, so it stays readable while a group commit is blocked
// inside a hung fsync.
func (w *WAL) Failed() bool { return w.failed.Load() }
