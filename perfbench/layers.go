package main

import (
	"sync/atomic"
	"time"

	"wormcontain/internal/core"
	"wormcontain/internal/faultfs"
	"wormcontain/internal/sim"
)

// The wrappers below time a layer from outside, around its public
// interface; the program itself carries no tracing.

// timedSink times every checkpoint handed to the durable sink.
type timedSink struct {
	inner sim.CheckpointSink
	// onSave, when set, sees each save's interval.
	onSave func(start, end time.Time)
	saves  int
	saveNs int64
	bytes  int
}

func (s *timedSink) Save(payload []byte) (uint64, error) {
	start := time.Now()
	gen, err := s.inner.Save(payload)
	end := time.Now()
	s.saves++
	s.saveNs += end.Sub(start).Nanoseconds()
	s.bytes = len(payload)
	if s.onSave != nil {
		s.onSave(start, end)
	}
	return gen, err
}

// fsStats counts what a timedFS saw. The durable store's flusher writes
// from its own goroutine, so the counters are atomic.
type fsStats struct {
	bytes    atomic.Uint64
	syncNs   atomic.Int64
	onSyncFn atomic.Pointer[func(start, end time.Time)]
}

// timedFS forwards to a faultfs.FS, counting the bytes written to and
// timing the fsyncs of the files it opens.
type timedFS struct {
	faultfs.FS
	st *fsStats
}

func (f timedFS) Create(name string) (faultfs.File, error) {
	file, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return timedFile{file, f.st}, nil
}

func (f timedFS) Append(name string) (faultfs.File, error) {
	file, err := f.FS.Append(name)
	if err != nil {
		return nil, err
	}
	return timedFile{file, f.st}, nil
}

type timedFile struct {
	faultfs.File
	st *fsStats
}

func (f timedFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.st.bytes.Add(uint64(n))
	return n, err
}

func (f timedFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	end := time.Now()
	f.st.syncNs.Add(end.Sub(start).Nanoseconds())
	if fn := f.st.onSyncFn.Load(); fn != nil {
		(*fn)(start, end)
	}
	return err
}

// limiterStats counts decisions seen by a timedLimiter; the gateway
// calls the limiter from one goroutine per connection.
type limiterStats struct {
	observes atomic.Uint64
	denies   atomic.Uint64
	failures atomic.Uint64
	ns       atomic.Int64
}

// timedLimiter times Observe on the wrapped containment backend.
type timedLimiter struct {
	core.ContainmentLimiter
	st *limiterStats
	// onObserve, when set, sees each decision's interval.
	onObserve func(src uint32, start, end time.Time)
}

func (l *timedLimiter) Observe(src, dst uint32, t time.Time) core.Decision {
	start := time.Now()
	d := l.ContainmentLimiter.Observe(src, dst, t)
	end := time.Now()
	l.st.observes.Add(1)
	l.st.ns.Add(end.Sub(start).Nanoseconds())
	if d == core.Deny {
		l.st.denies.Add(1)
	}
	if l.onObserve != nil {
		l.onObserve(src, start, end)
	}
	return d
}

// timedFailLimiter additionally forwards core.FailureObserver, which
// the gateway feature-detects by type assertion: hiding it would turn
// the connection-failure variant off.
type timedFailLimiter struct {
	*timedLimiter
	fo core.FailureObserver
}

func (l timedFailLimiter) ObserveFailure(src, dst uint32, t time.Time) core.Decision {
	l.st.failures.Add(1)
	return l.fo.ObserveFailure(src, dst, t)
}

// wrapLimiter returns the timing wrapper for inner, keeping its
// FailureObserver capability when it has one.
func wrapLimiter(inner core.ContainmentLimiter, st *limiterStats,
	onObserve func(src uint32, start, end time.Time)) core.ContainmentLimiter {
	tl := &timedLimiter{ContainmentLimiter: inner, st: st, onObserve: onObserve}
	if fo, ok := inner.(core.FailureObserver); ok {
		return timedFailLimiter{tl, fo}
	}
	return tl
}
