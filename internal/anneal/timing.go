package anneal

import "time"

// TimingModel charges the wall-clock costs of a quantum annealer access.
// The defaults follow the paper's experiment setup on D-Wave 2000Q:
// 20 µs annealing time, 110 µs readout time, 20 µs delay between samples
// (Fig 1 and §VI-A), giving the ≈130 µs single-sample access the paper
// quotes. These durations are *modelled* and added to the measured CPU time
// when composing HyQSAT end-to-end numbers — the same composition the paper
// performs with the real device.
type TimingModel struct {
	AnnealTime       time.Duration
	ReadoutTime      time.Duration
	InterSampleDelay time.Duration
	// ProgrammingTime is charged once per problem programming; with the
	// FPGA-side integration of §VII-A it is sub-microsecond, which is the
	// regime HyQSAT assumes.
	ProgrammingTime time.Duration
}

// DWave2000QTiming returns the paper's device timing configuration.
func DWave2000QTiming() TimingModel {
	return TimingModel{
		AnnealTime:       20 * time.Microsecond,
		ReadoutTime:      110 * time.Microsecond,
		InterSampleDelay: 20 * time.Microsecond,
		ProgrammingTime:  1 * time.Microsecond,
	}
}

// AccessTime returns the modelled device time for drawing n samples from one
// programmed problem: programming + n·(anneal+readout) + (n−1)·delay.
func (t TimingModel) AccessTime(n int) time.Duration {
	if n <= 0 {
		return 0
	}
	return t.ProgrammingTime +
		time.Duration(n)*(t.AnnealTime+t.ReadoutTime) +
		time.Duration(n-1)*t.InterSampleDelay
}

// BatchAccessTime returns the modelled device time of one batched program
// serving several co-tiled members: the chip is programmed once and every
// read cycle anneals and reads out all members simultaneously, so the program
// runs max(reads) cycles and costs exactly AccessTime(max(reads)).
func (t TimingModel) BatchAccessTime(reads []int) time.Duration {
	max := 0
	for _, r := range reads {
		if r <= 0 {
			r = 1
		}
		if r > max {
			max = r
		}
	}
	return t.AccessTime(max)
}

// SplitAccessTime splits BatchAccessTime(reads) across the members of one
// batched program, pro-rata by requested reads (a member asking for more read
// cycles occupies more of the program's readout budget). The shares are exact:
// integer nanosecond remainders are assigned deterministically to the earliest
// members, so the returned durations always sum to BatchAccessTime(reads) —
// tenants collectively pay for exactly one program, never more or less.
func (t TimingModel) SplitAccessTime(reads []int) []time.Duration {
	if len(reads) == 0 {
		return nil
	}
	total := t.BatchAccessTime(reads).Nanoseconds()
	sum := int64(0)
	shares := make([]time.Duration, len(reads))
	for _, r := range reads {
		if r <= 0 {
			r = 1
		}
		sum += int64(r)
	}
	assigned := int64(0)
	for i, r := range reads {
		if r <= 0 {
			r = 1
		}
		s := total * int64(r) / sum
		shares[i] = time.Duration(s)
		assigned += s
	}
	for rem := total - assigned; rem > 0; rem-- {
		shares[rem-1] += time.Nanosecond
	}
	return shares
}
