package experiment

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/runner"
)

// jobNames is every job of every need under zero Options, in job order,
// as the commit before the experiments became tables of one description
// named them. bench/ and the goldens key on these names.
var jobNames = map[Need][]string{
	NeedSystem: {"onoff/system/toshiba", "onoff/system/fujitsu"},
	NeedUsers:  {"onoff/users/toshiba", "onoff/users/fujitsu"},
	NeedPolicies: {
		"policies/toshiba/organ-pipe", "policies/toshiba/interleaved", "policies/toshiba/serial",
		"policies/fujitsu/organ-pipe", "policies/fujitsu/interleaved", "policies/fujitsu/serial",
	},
	NeedSweep: {
		"sweep/25", "sweep/50", "sweep/100", "sweep/200", "sweep/400", "sweep/600", "sweep/800", "sweep/1018",
	},
	NeedShared: {"shared"},
	NeedFaults: {"faults/0", "faults/0.0001", "faults/0.001", "faults/0.005", "faults/0.02"},
	NeedCrash: {
		"crash/mid block-copy", "crash/mid table-write (torn slot)",
		"crash/after 29 device ops", "crash/after 57 device ops",
	},
	NeedVolume: {
		"volume/disks-1", "volume/disks-2", "volume/disks-4", "volume/disks-8",
		"volume/unit-4", "volume/unit-64", "volume/mirror-rr", "volume/mirror-sq",
		"volume/disks-4-rearr", "volume/mirror-degraded",
	},
	NeedTenants: {
		"tenants/tenants-1000", "tenants/tenants-10000", "tenants/tenants-100000", "tenants/tenants-1000000",
		"tenants/noisy-qos", "tenants/noisy-open", "tenants/mirror-death",
	},
	NeedRAID: {
		"raid/raid5-4", "raid/raid5-degraded", "raid/raid5-rebuild", "raid/raid5-scrub",
		"raid/raid6-6", "raid/raid6-double",
	},
	NeedTrace: {
		"trace/open-1x", "trace/open-1x-rearr", "trace/closed-1x", "trace/closed-1x-rearr",
		"trace/open-4x-stripe4", "trace/open-4x-stripe4-rearr",
	},
}

// TestEveryRowOfEveryNeed holds the tables in shape: under zero Options
// and under each flag set that collapses a matrix, every row of every
// need validates and describes a stack that can be built, job names are
// unique, and the whole job-name list is the pinned one.
func TestEveryRowOfEveryNeed(t *testing.T) {
	custom := []string{"trace/custom", "trace/custom-rearr"}
	for _, tc := range []struct {
		name string
		o    Options
		// need's names replace the pinned ones under these options.
		need  Need
		names []string
	}{
		{name: "zero", need: -1},
		{"-tenants", Options{Tenants: 500}, NeedTenants,
			[]string{"tenants/tenants-500", "tenants/noisy-qos", "tenants/noisy-open", "tenants/mirror-death"}},
		{"-qos on", Options{QoS: "on"}, -1, nil},
		{"-qos off", Options{QoS: "off"}, -1, nil},
		{"-layout raid5", Options{RAIDLayout: "raid5"}, NeedRAID, []string{"raid/custom-raid5"}},
		{"-layout raid6", Options{RAIDLayout: "raid6"}, NeedRAID, []string{"raid/custom-raid6"}},
		{"-layout raid5 -spare", Options{RAIDLayout: "raid5", RAIDSpare: 1}, NeedRAID, []string{"raid/custom-raid5"}},
		{"-layout raid6 -spare", Options{RAIDLayout: "raid6", RAIDSpare: 1}, NeedRAID, []string{"raid/custom-raid6"}},
		{"-trace-in", Options{TraceIn: "some.trace"}, NeedTrace, custom},
		{"-trace-scale", Options{TraceScale: 4}, NeedTrace, custom},
		{"-replay-mode", Options{ReplayMode: "closed"}, NeedTrace, custom},
	} {
		if err := tc.o.Validate(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		seen := map[string]bool{}
		for n := Need(0); n < needCount; n++ {
			units, err := n.units(tc.o)
			if err != nil {
				t.Errorf("%s: %v: %v", tc.name, n, err)
				continue
			}
			var got []string
			for _, u := range units {
				if seen[u.job.Name] {
					t.Errorf("%s: two jobs named %q", tc.name, u.job.Name)
				}
				seen[u.job.Name] = true
				got = append(got, u.job.Name)
			}
			want := jobNames[n]
			if n == tc.need {
				want = tc.names
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: %v jobs are\n%q, want\n%q", tc.name, n, got, want)
			}
			if needTable[n].rows == nil {
				continue
			}
			for _, e := range needTable[n].rows(tc.o) {
				e, err := e.withDefaults()
				if err == nil {
					_, err = e.stackSpec()
				}
				if err != nil {
					t.Errorf("%s: %v row %q: %v", tc.name, n, e.Name, err)
				}
			}
		}
	}
}

// TestBadOptionsFailBeforeAnyJob: a misspelt choice in Options is a
// typed error from RunSpec, and no job has started when it comes.
func TestBadOptionsFailBeforeAnyJob(t *testing.T) {
	for field, o := range map[string]Options{
		"QoS":        {QoS: "ON"},
		"RAIDLayout": {RAIDLayout: "raid7"},
		"ReplayMode": {ReplayMode: "sideways"},
	} {
		started := false
		_, err := RunSpec(context.Background(), "crash", o,
			runner.Config{OnProgress: func(runner.Progress) { started = true }})
		var bad *OptionError
		if !errors.As(err, &bad) || bad.Field != field || bad.Value == "" || bad.Want == "" {
			t.Errorf("Options.%s: err = %v, want an *OptionError naming the field, the value and the accepted set", field, err)
		}
		if started {
			t.Errorf("Options.%s: jobs ran before the options were checked", field)
		}
	}
}
