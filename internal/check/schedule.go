package check

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"mams/internal/sim"
)

// FaultKind is one of the explorer's injectable fault classes.
type FaultKind int

const (
	// Crash kills the target server's process; it restarts only on heal.
	Crash FaultKind = iota
	// Unplug detaches the target from the network without killing it — the
	// paper's Test B (network unplugged), which exercises self-fencing.
	Unplug
	// Drop raises the network loss rate to 1.0 for a short burst, modeling
	// a transient message-drop storm. It is global, so Target is ignored.
	Drop
	// Slow is a gray fault: the target's local timers (handler CPU cost,
	// heartbeats, retry loops) stretch by Mag× until heal. The node never
	// looks down — it is merely late everywhere.
	Slow
	// Flap is a gray fault: the target's *outbound* links to its group
	// peers cycle up/down on a seeded schedule until heal (up ~1 s, down
	// ~Mag×100 ms). Asymmetric: the target still hears everyone.
	Flap
	// Skew is a gray fault: the target's clock runs at (1+Mag/1000)× true
	// rate until heal, so its timeouts and lease arithmetic drift. Mag is
	// signed parts-per-mille; negative = slow clock (timers fire late).
	Skew
	// Brownout is a gray fault: the pool node co-located with the target
	// serves data ops Mag× slower and fails every 3rd one until heal,
	// while its metadata probes stay healthy (no hard-down signal).
	Brownout
)

var kindLetter = map[FaultKind]string{
	Crash: "c", Unplug: "u", Drop: "d",
	Slow: "s", Flap: "f", Skew: "k", Brownout: "b",
}
var letterKind = map[string]FaultKind{
	"c": Crash, "u": Unplug, "d": Drop,
	"s": Slow, "f": Flap, "k": Skew, "b": Brownout,
}

func (k FaultKind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Unplug:
		return "unplug"
	case Drop:
		return "drop"
	case Slow:
		return "slow"
	case Flap:
		return "flap"
	case Skew:
		return "skew"
	case Brownout:
		return "brownout"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// takesMag reports whether the kind carries a magnitude operand.
func (k FaultKind) takesMag() bool {
	switch k {
	case Slow, Flap, Skew, Brownout:
		return true
	}
	return false
}

// defaultMag is the magnitude canon fills in when an action omits one.
// Calibrated so a single gray fault is survivable by a correct protocol but
// uncomfortable: combined with a second gray fault on the same node the
// old fixed-interval fence policy loses its safety margin (DESIGN.md §6).
func (k FaultKind) defaultMag() int {
	switch k {
	case Slow:
		return 6 // timers stretch 6×
	case Flap:
		return 7 // down phases ~700 ms (> the 500 ms ack timeout), up ~1 s
	case Skew:
		return -250 // clock runs at 0.75× true rate; timers fire 1.33× late
	case Brownout:
		return 8 // pool data path 8× slower, every 3rd data op fails
	}
	return 0
}

// validMag reports whether m is a legal explicit magnitude for the kind.
func (k FaultKind) validMag(m int) bool {
	switch k {
	case Slow, Brownout:
		return m >= 2
	case Flap:
		return m >= 1
	case Skew:
		return m != 0 && m > -1000
	}
	return m == 0
}

// Action injects one fault at a protocol step boundary. Target indexes the
// group-0 member list (0 = the member that boots active); Drop is global
// and carries no target. Gray kinds carry a magnitude operand Mag (0 =
// kind default, filled by canon).
type Action struct {
	Step   int
	Kind   FaultKind
	Target int
	Mag    int
}

// String renders the canonical spelling: letter, target (except Drop),
// xMag for gray kinds, @step — e.g. "c0@2", "d@5", "s1x6@3", "k0x-250@1".
func (a Action) String() string {
	var b strings.Builder
	b.WriteString(kindLetter[a.Kind])
	if a.Kind != Drop {
		fmt.Fprintf(&b, "%d", a.Target)
	}
	if a.Kind.takesMag() {
		m := a.Mag
		if m == 0 {
			m = a.Kind.defaultMag()
		}
		fmt.Fprintf(&b, "x%d", m)
	}
	fmt.Fprintf(&b, "@%d", a.Step)
	return b.String()
}

// Schedule is an ordered list of fault injections.
type Schedule []Action

// canon returns the schedule sorted by (Step, Kind, Target, Mag) with Drop
// targets zeroed (Drop is global) and default magnitudes made explicit, so
// semantically equal schedules encode identically and String → Parse →
// canon is the identity for every alphabet letter.
func (s Schedule) canon() Schedule {
	out := make(Schedule, len(s))
	copy(out, s)
	for i := range out {
		if out[i].Kind == Drop {
			out[i].Target = 0
		}
		if out[i].Kind.takesMag() {
			if out[i].Mag == 0 {
				out[i].Mag = out[i].Kind.defaultMag()
			}
		} else {
			out[i].Mag = 0
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Step != out[j].Step {
			return out[i].Step < out[j].Step
		}
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		if out[i].Target != out[j].Target {
			return out[i].Target < out[j].Target
		}
		return out[i].Mag < out[j].Mag
	})
	return out
}

// Encode renders the schedule as a compact replayable string, e.g.
// "c0@2,u1@4,d@5". The empty schedule encodes as "-".
func (s Schedule) Encode() string {
	c := s.canon()
	if len(c) == 0 {
		return "-"
	}
	parts := make([]string, len(c))
	for i, a := range c {
		parts[i] = a.String()
	}
	return strings.Join(parts, ",")
}

func (s Schedule) String() string { return s.Encode() }

// DecodeSchedule parses the Encode format.
func DecodeSchedule(enc string) (Schedule, error) {
	enc = strings.TrimSpace(enc)
	if enc == "" || enc == "-" {
		return Schedule{}, nil
	}
	var out Schedule
	for _, part := range strings.Split(enc, ",") {
		part = strings.TrimSpace(part)
		a, err := parseAction(part)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out.canon(), nil
}

// parseAction parses one canonical action spelling. The grammar is strict
// and symmetric with Action.String: <letter>[<target>][x<mag>]@<step>,
// where the target is required for every kind except Drop (which must omit
// it — Drop is global) and the magnitude is accepted only on gray kinds.
func parseAction(part string) (Action, error) {
	at := strings.IndexByte(part, '@')
	if at < 1 {
		return Action{}, fmt.Errorf("check: bad action %q (want like c0@2, d@5 or s1x6@3)", part)
	}
	kind, ok := letterKind[part[:1]]
	if !ok {
		return Action{}, fmt.Errorf("check: unknown fault kind in %q", part)
	}
	body := part[1:at]
	magStr, hasMag := "", false
	if x := strings.IndexByte(body, 'x'); x >= 0 {
		body, magStr, hasMag = body[:x], body[x+1:], true
	}
	a := Action{Kind: kind}
	switch {
	case kind == Drop:
		if body != "" {
			return Action{}, fmt.Errorf("check: drop is global, %q must not name a target", part)
		}
	case body == "":
		return Action{}, fmt.Errorf("check: %s action %q needs a target", kind, part)
	default:
		t, err := strconv.Atoi(body)
		if err != nil || t < 0 {
			return Action{}, fmt.Errorf("check: bad target in %q", part)
		}
		a.Target = t
	}
	switch {
	case !hasMag:
		if kind.takesMag() {
			a.Mag = kind.defaultMag()
		}
	case !kind.takesMag():
		return Action{}, fmt.Errorf("check: %s takes no magnitude, got %q", kind, part)
	default:
		m, err := strconv.Atoi(magStr)
		if err != nil || !kind.validMag(m) {
			return Action{}, fmt.Errorf("check: bad %s magnitude in %q", kind, part)
		}
		a.Mag = m
	}
	step, err := strconv.Atoi(part[at+1:])
	if err != nil || step < 0 {
		return Action{}, fmt.Errorf("check: bad step in %q", part)
	}
	a.Step = step
	return a, nil
}

// Artifact is everything needed to replay a run bit-for-bit: the runner
// configuration knobs that affect the simulation plus the schedule itself.
// It round-trips through a line-oriented key=value text format so failing
// schedules can be committed as test fixtures and pasted into bug reports.
type Artifact struct {
	Seed      uint64
	Backups   int
	Steps     int
	StepEvery sim.Time
	Load      int
	Schedule  Schedule
	Bug       string // regression knob ("" or "dup-sn")
	SyncSSP   bool

	// Commit-path mode knobs (older artifacts omit them; both default off).
	GroupCommit bool
	AsyncAck    bool
}

const artifactHeader = "mamscheck-artifact v1"

// WriteArtifact serializes a in the fixture text format.
func WriteArtifact(w io.Writer, a Artifact) error {
	_, err := fmt.Fprintf(w,
		"%s\nseed=%d\nbackups=%d\nsteps=%d\nstepevery=%d\nload=%d\nschedule=%s\nbug=%s\nsyncssp=%t\ngroupcommit=%t\nasyncack=%t\n",
		artifactHeader, a.Seed, a.Backups, a.Steps, int64(a.StepEvery), a.Load,
		a.Schedule.Encode(), a.Bug, a.SyncSSP, a.GroupCommit, a.AsyncAck)
	return err
}

// ReadArtifact parses the fixture text format.
func ReadArtifact(r io.Reader) (Artifact, error) {
	var a Artifact
	data, err := io.ReadAll(r)
	if err != nil {
		return a, err
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) == 0 || strings.TrimSpace(lines[0]) != artifactHeader {
		return a, fmt.Errorf("check: not a %q file", artifactHeader)
	}
	for _, ln := range lines[1:] {
		ln = strings.TrimSpace(ln)
		if ln == "" || strings.HasPrefix(ln, "#") {
			continue
		}
		eq := strings.IndexByte(ln, '=')
		if eq < 0 {
			return a, fmt.Errorf("check: bad artifact line %q", ln)
		}
		key, val := ln[:eq], ln[eq+1:]
		switch key {
		case "seed":
			a.Seed, err = strconv.ParseUint(val, 10, 64)
		case "backups":
			a.Backups, err = strconv.Atoi(val)
		case "steps":
			a.Steps, err = strconv.Atoi(val)
		case "stepevery":
			var n int64
			n, err = strconv.ParseInt(val, 10, 64)
			a.StepEvery = sim.Time(n)
		case "load":
			a.Load, err = strconv.Atoi(val)
		case "schedule":
			a.Schedule, err = DecodeSchedule(val)
		case "bug":
			a.Bug = val
		case "syncssp":
			a.SyncSSP, err = strconv.ParseBool(val)
		case "groupcommit":
			a.GroupCommit, err = strconv.ParseBool(val)
		case "asyncack":
			a.AsyncAck, err = strconv.ParseBool(val)
		default:
			return a, fmt.Errorf("check: unknown artifact key %q", key)
		}
		if err != nil {
			return a, fmt.Errorf("check: bad artifact value for %s: %v", key, err)
		}
	}
	return a, a.Validate()
}

// Validate rejects a schedule that aims a fault at a member the artifact's
// group does not have (group size = Backups+1, after defaults).
func (a Artifact) Validate() error {
	members := a.Config().withDefaults().Backups + 1
	for _, act := range a.Schedule {
		if act.Kind != Drop && act.Target >= members {
			return fmt.Errorf("check: %s targets member %d, but the group has %d members", act, act.Target, members)
		}
	}
	return nil
}

// Config returns the runner configuration the artifact pins down.
func (a Artifact) Config() Config {
	return Config{
		Seed: a.Seed, Backups: a.Backups, Steps: a.Steps, StepEvery: a.StepEvery,
		Load: a.Load, Bug: a.Bug, SyncSSP: a.SyncSSP,
		GroupCommit: a.GroupCommit, AsyncAck: a.AsyncAck,
	}
}

// ArtifactFor captures cfg (after defaulting) and a schedule as an artifact.
func ArtifactFor(cfg Config, s Schedule) Artifact {
	cfg = cfg.withDefaults()
	return Artifact{
		Seed: cfg.Seed, Backups: cfg.Backups, Steps: cfg.Steps, StepEvery: cfg.StepEvery,
		Load: cfg.Load, Schedule: s.canon(), Bug: cfg.Bug, SyncSSP: cfg.SyncSSP,
		GroupCommit: cfg.GroupCommit, AsyncAck: cfg.AsyncAck,
	}
}
