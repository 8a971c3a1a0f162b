package server

import (
	"testing"
	"time"
)

// TestPreemptDecisions pins each policy's victim choice on hand-built
// running sets: FIFO never preempts; SuspensionAware takes only a session of
// a strictly lower class than the queue head — the lowest class first, the
// longest-running within one — and a rider-free session over a fold leader,
// falling back to a leader only when no rider-free session qualifies.
func TestPreemptDecisions(t *testing.T) {
	type running struct {
		name   string
		prio   Priority
		age    time.Duration // how long ago the current dispatch started
		riders int
	}
	cases := []struct {
		name    string
		policy  Policy
		head    Priority
		running []running
		want    string // "" = no victim
	}{
		{"fifo_never_preempts", FIFO{}, Interactive,
			[]running{{"b", Batch, time.Hour, 0}}, ""},
		{"lower_class_preempted", SuspensionAware{}, Interactive,
			[]running{{"b", Batch, time.Minute, 0}}, "b"},
		{"equal_class_not_preempted", SuspensionAware{}, Batch,
			[]running{{"b", Batch, time.Hour, 0}}, ""},
		{"higher_class_not_preempted", SuspensionAware{}, Normal,
			[]running{{"i", Interactive, time.Hour, 0}}, ""},
		{"only_lower_classes_eligible", SuspensionAware{}, Normal,
			[]running{{"i", Interactive, time.Hour, 0}, {"n", Normal, time.Hour, 0}, {"b", Batch, time.Second, 0}}, "b"},
		{"lowest_class_first", SuspensionAware{}, Interactive,
			[]running{{"n", Normal, time.Hour, 0}, {"b", Batch, time.Second, 0}}, "b"},
		{"oldest_first_within_class", SuspensionAware{}, Interactive,
			[]running{{"young", Batch, time.Minute, 0}, {"old", Batch, time.Hour, 0}, {"mid", Batch, 30 * time.Minute, 0}}, "old"},
		{"rider_free_over_older_leader", SuspensionAware{}, Interactive,
			[]running{{"leader", Batch, time.Hour, 2}, {"solo", Batch, time.Minute, 0}}, "solo"},
		{"rider_free_over_lower_class_leader", SuspensionAware{}, Interactive,
			[]running{{"leader", Batch, time.Hour, 1}, {"solo", Normal, time.Minute, 0}}, "solo"},
		{"leader_when_no_rider_free", SuspensionAware{}, Interactive,
			[]running{{"leader", Batch, time.Hour, 2}}, "leader"},
		{"ineligible_solo_leaves_leader", SuspensionAware{}, Normal,
			[]running{{"leader", Batch, time.Hour, 2}, {"solo", Normal, time.Minute, 0}}, "leader"},
	}
	now := time.Now()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var sessions []*Session
			for _, r := range tc.running {
				s := &Session{id: r.name, priority: r.prio, started: now.Add(-r.age)}
				for i := 0; i < r.riders; i++ {
					s.riders = append(s.riders, &Session{})
				}
				sessions = append(sessions, s)
			}
			got := ""
			if v := tc.policy.Preempt(sessions, &Session{id: "head", priority: tc.head}); v != nil {
				got = v.id
			}
			if got != tc.want {
				t.Errorf("%s preempted %q, want %q", tc.policy.Name(), got, tc.want)
			}
		})
	}
}
