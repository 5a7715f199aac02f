package server

import (
	"errors"
	"time"

	"gstm"
	"gstm/internal/obs"
)

// The watch subsystem serves OpWatch/OpWaitKey long-polls as blocking STM
// transactions: the body reads the key and calls tx.Retry when the wait
// condition holds, which parks the goroutine on the one cell the read
// touched (the key's hash bucket). A commit to that bucket wakes it through
// tl2's per-base waiter lists — it parks again unless its own key changed —
// with no server-side polling loop and no periodic revalidation.
//
// Watches run outside the worker pool, one goroutine per outstanding
// watch, all on the watch thread (see the thread table in worker.go).
// Concurrent transactions on one ThreadID are safe — telemetry stripes are
// atomic and the guidance gate is lock-free — they only share a telemetry
// stripe and a TSA site, which is the point: the watch site is a single
// stable label instead of Workers noisy ones.
//
// Drain: Shutdown and Crash cancel watchCtx before waiting out inflight,
// so every parked watch wakes with gstm.ErrCanceled and answers
// StatusShutdown; a watch arriving while draining is refused with
// StatusWouldBlock without ever parking (see serveConn).

// serveWatch runs one OpWatch/OpWaitKey long-poll to completion and writes
// its response. Called on a dedicated goroutine holding one inflight slot.
func (s *Server) serveWatch(req Request, c *conn) {
	defer s.inflight.Done()
	sh := s.router.HomeOf(req.Key)
	st := s.stores[sh]

	var sp obs.Span
	begin := time.Now().UnixNano()
	sp.Start(req.ID, uint8(req.Op), uint8(sh), uint8(s.watchThread()), 1, req.Trace, begin)

	var val uint64
	err := s.router.System(sh).Run(nil, s.watchThread(), siteWatch, func(tx *gstm.Tx) error {
		v, ok := st.Get(tx, int64(req.Key))
		if !ok || (req.Op == OpWatch && v == req.Arg) {
			tx.Retry()
		}
		val = v
		return nil
	}, gstm.WithBlocking(s.watchCtx), gstm.WithSpan(&sp))

	resp := Response{ID: req.ID, Value: val}
	cause := obs.CauseNone
	switch {
	case err == nil:
	case errors.Is(err, gstm.ErrWouldBlock):
		// Cannot park (empty read set — impossible here: a hash-table Get
		// always reads its key's bucket cell — but the mapping stays total).
		resp = Response{ID: req.ID, Status: StatusWouldBlock}
		cause = obs.CauseSpurious
	case errors.Is(err, gstm.ErrCanceled):
		// watchCtx fired: the server is draining out from under the park.
		resp = Response{ID: req.ID, Status: StatusShutdown}
		cause = obs.CauseCanceled
	default:
		resp = Response{ID: req.ID, Status: StatusBadRequest}
		cause = obs.CauseSpurious
	}
	sp.Finish(cause, time.Now().UnixNano())
	s.obs.Collect(int(s.watchThread()), &sp)
	c.reply(resp, nil)
}
