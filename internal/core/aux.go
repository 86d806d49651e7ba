package core

// AuxAction is a non-column maintenance action — checkpointing is the
// canonical one — that bids in the tuner's ranked auction against cracks
// and merges. Score returns the action's current urgency on the same scale
// as costmodel scores (<= 0 means "nothing to do"); Run performs one
// bounded step and returns the work done. Like every refinement action it
// runs on the idle pool, inside a load-gate token, so it never rides a
// query's critical path.
type AuxAction interface {
	Name() string
	Score() float64
	Run() int
}

// RegisterAux adds a maintenance action to the tuner's auction.
func (t *Tuner) RegisterAux(a AuxAction) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.addLocked(&candidate{aux: a})
}

// AuxRuns returns how many aux actions the tuner has executed.
func (t *Tuner) AuxRuns() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.auxRuns
}
