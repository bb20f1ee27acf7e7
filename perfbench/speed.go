package main

import (
	"crypto/ed25519"
	"crypto/sha256"
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// speedProbe samples, while a repetition runs, how much CPU time a fixed
// unit of work takes on the machine at that moment. On a shared host the
// same code runs up to 1.6 times slower for tens of seconds at a time when
// neighbours are busy; run.py divides the repetition's times by the
// probe's median to cancel that.
//
// A sample is thread CPU time, not wall time, so waiting for a core behind
// the workload's own goroutines does not count; slower cycles do.
type speedProbe struct {
	stop    chan struct{}
	done    chan struct{}
	samples []time.Duration
}

// probeEvery spaces the samples; one takes about 0.7 ms, so the probe
// costs under 1% of a core.
const probeEvery = 100 * time.Millisecond

// probeKey signs the probe's fixed work. ed25519 signing is the program's
// largest single cost, so the probe feels the slowdowns the program does.
var probeKey = func() ed25519.PrivateKey {
	seed := sha256.Sum256([]byte("perfbench speed probe"))
	return ed25519.NewKeyFromSeed(seed[:])
}()

func startProbe() *speedProbe {
	p := &speedProbe{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		p.samples = append(p.samples, probeOnce())
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
				p.samples = append(p.samples, probeOnce())
			}
		}
	}()
	return p
}

// finish stops the probe and returns its median sample, 0 if the thread
// CPU clock could not be read.
func (p *speedProbe) finish() time.Duration {
	close(p.stop)
	<-p.done
	s := p.samples
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// probeOnce returns the thread CPU time of one unit of probe work, or 0 if
// the clock cannot be read. The caller must be locked to its thread.
func probeOnce() time.Duration {
	msg := []byte("perfbench speed probe message")
	start, ok := threadCPU()
	for i := 0; i < 16; i++ {
		sig := ed25519.Sign(probeKey, msg)
		msg[0] = sig[0]
	}
	end, ok2 := threadCPU()
	if !ok || !ok2 {
		return 0
	}
	return end - start
}

// threadCPU reads the calling thread's CPU clock.
func threadCPU() (time.Duration, bool) {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano()), errno == 0
}
