package kr

import "repro/internal/kokkos"

// Class is a view's checkpoint classification, matching the legend of the
// paper's Figure 7.
type Class int

const (
	// Checkpointed: the first-seen view of its allocation; serialized.
	Checkpointed Class = iota
	// Alias: a user-declared alias label (swap space); never serialized.
	Alias
	// Skipped: a duplicate capture of an allocation already checkpointed
	// (the copies the C++ compiler makes when a view is reachable through
	// multiple captured objects); automatically detected and serialized
	// only once.
	Skipped
)

func (c Class) String() string {
	switch c {
	case Checkpointed:
		return "Checkpointed"
	case Alias:
		return "Alias"
	case Skipped:
		return "Skipped"
	}
	return "Unknown"
}

// ViewRecord is one captured view's census entry.
type ViewRecord struct {
	Label string
	Bytes int
	Class Class
}

// Census summarizes the classification of a checkpoint region's captured
// views.
type Census struct {
	Records []ViewRecord

	checkpointed []kokkos.View // the unique views actually serialized
}

// Counts returns the number of views in each class.
func (c Census) Counts() (checkpointed, alias, skipped int) {
	for _, r := range c.Records {
		switch r.Class {
		case Checkpointed:
			checkpointed++
		case Alias:
			alias++
		case Skipped:
			skipped++
		}
	}
	return
}

// Bytes returns the total bytes in each class.
func (c Census) Bytes() (checkpointed, alias, skipped int) {
	for _, r := range c.Records {
		switch r.Class {
		case Checkpointed:
			checkpointed += r.Bytes
		case Alias:
			alias += r.Bytes
		case Skipped:
			skipped += r.Bytes
		}
	}
	return
}

// TotalViews returns the number of captured view objects.
func (c Census) TotalViews() int { return len(c.Records) }

// CheckpointedViews returns the unique views that are serialized into
// checkpoints, in capture order.
func (c Census) CheckpointedViews() []kokkos.View { return c.checkpointed }

// CensusOf classifies a capture list: the first view of each allocation is
// Checkpointed, later views of the same allocation are Skipped, and views
// whose label is in aliases are Alias (and never serialized). It works on
// dry views too, enabling the Figure 7 census at sizes too large to
// allocate.
func CensusOf(views []kokkos.View, aliases map[string]bool) Census {
	c := Census{
		Records:      make([]ViewRecord, 0, len(views)),
		checkpointed: make([]kokkos.View, 0, len(views)),
	}
	for _, v := range views {
		class := classify(v, c.checkpointed, aliases)
		c.Records = append(c.Records, ViewRecord{Label: v.Label(), Bytes: v.SimBytes(), Class: class})
		if class == Checkpointed {
			c.checkpointed = append(c.checkpointed, v)
		}
	}
	return c
}

// checkpointedViews returns the views of a capture list that CensusOf
// classifies Checkpointed, in capture order, in buf's storage and without
// building the census records.
func checkpointedViews(buf, views []kokkos.View, aliases map[string]bool) []kokkos.View {
	buf = buf[:0]
	for _, v := range views {
		if classify(v, buf, aliases) == Checkpointed {
			buf = append(buf, v)
		}
	}
	return buf
}

// classify returns v's class given the views already checkpointed before
// it in the same capture list.
func classify(v kokkos.View, checkpointed []kokkos.View, aliases map[string]bool) Class {
	if aliases[v.Label()] {
		return Alias
	}
	for _, r := range checkpointed { // one representative per allocation
		if kokkos.SameAllocation(r, v) {
			return Skipped
		}
	}
	return Checkpointed
}
