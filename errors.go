package gstm

import (
	"errors"

	"gstm/internal/tl2"
)

// This file is the package's stable error surface. Every sentinel here is
// usable with errors.Is; wrapped variants carry detail (the analyzer's
// rejection reason, the underlying context error) without breaking the
// match. Network front-ends such as internal/server map these sentinels
// onto protocol status codes.

// ErrRetryBudgetExhausted is returned by Run when the transaction's last
// allowed attempt (see MaxAttempts and WithRetryBudget) also aborted on a
// conflict. It is a policy outcome, not corruption: no partial effects are
// visible and the call may be retried with a fresh budget.
var ErrRetryBudgetExhausted = tl2.ErrBudgetExceeded

// ErrCanceled is returned (wrapped around the context's own error) by Run
// when its context is canceled or its deadline passes between attempts.
// errors.Is also matches context.Canceled / context.DeadlineExceeded on
// the same error. No locks remain held and no writes were published.
var ErrCanceled = tl2.ErrCanceled

// ErrWouldBlock is returned by Run when the transaction body called
// tx.Retry (directly or via Select) and blocking was not enabled for the
// call (no WithBlocking option), or when it retried with an empty read set
// — a transaction that read nothing can never be woken, so parking it
// would sleep forever. No partial effects are visible; enable WithBlocking
// or handle the sentinel as "not ready yet".
var ErrWouldBlock = tl2.ErrWouldBlock

// ErrGuidanceRejected is returned by EnableGuidance when the model fails
// the analyzer's validation (not enough bias to guide — the paper's
// "unguidable" verdict) and ForceGuidance is not used. The returned error
// wraps this sentinel together with the analyzer's reason.
var ErrGuidanceRejected = errors.New("gstm: model rejected by analyzer")
