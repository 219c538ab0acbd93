// Package ctxflow_clean holds context-threading patterns ctxflow must
// accept: passing the ctx through, deriving from it, root construction
// outside the chain, and justified detachment.
package ctxflow_clean

import "context"

func work(ctx context.Context) error { return ctx.Err() }

func blockingCtx(ctx context.Context, n int) int {
	if ctx.Err() != nil {
		return 0
	}
	return n
}

// threads passes the caller's ctx straight through: the contract.
func threads(ctx context.Context) error { return work(ctx) }

// derives keeps the chain intact through WithCancel.
func derives(ctx context.Context) error {
	dctx, cancel := context.WithCancel(ctx)
	defer cancel()
	return work(dctx)
}

// reassigns overwrites ctx with a derived context on one branch —
// still attached to the caller on every path.
func reassigns(ctx context.Context, tight bool) error {
	if tight {
		var cancel context.CancelFunc
		ctx, cancel = context.WithCancel(ctx)
		defer cancel()
	}
	return work(ctx)
}

// root has no ctx parameter: constructing a fresh root context is the
// job of functions outside the chain (main, servers, tests).
func root(n int) int {
	ctx := context.Background()
	return blockingCtx(ctx, n)
}

// sibling calls the Ctx variant, as the rule demands.
func sibling(ctx context.Context, n int) int { return blockingCtx(ctx, n) }

// detached documents an intentional detachment.
func detached(ctx context.Context) error {
	//lint:ignore ctxflow audit write must complete even when the request is canceled
	return work(context.Background())
}

// overwritten launders ctx but overwrites it with an attached context
// before any use.
func overwritten(ctx, parent context.Context) error {
	ctx = context.TODO()
	ctx = parent
	return work(ctx)
}

// rangeRebinds launders ctx, then the range clause rebinds it to an
// attached context on every iteration before the call.
func rangeRebinds(ctx context.Context, ctxs []context.Context) {
	ctx = context.TODO()
	for _, ctx = range ctxs {
		_ = work(ctx)
	}
}

// shadowed launders only an inner-block ctx that shadows the
// parameter; the outer ctx reaches the call intact.
func shadowed(ctx context.Context, fallback bool) error {
	if fallback {
		ctx := context.TODO()
		_ = ctx
	}
	return work(ctx)
}
