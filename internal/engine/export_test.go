package engine

import "holistic/internal/shard"

// Column resolves a column for the external tests (package engine_test),
// which check its structure (shard.Column.Validate) and its FirstLive.
func (e *Engine) Column(table, col string) (*shard.Column, error) { return e.column(table, col) }

// HasIdleRunner reports whether the engine has an idle pool, which drains
// the ingest queues besides the writers' inline merges.
func (e *Engine) HasIdleRunner() bool { return e.runner != nil }
