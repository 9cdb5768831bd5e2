package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs need not be sorted).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// unionSeconds is the length of the union of [start, end) intervals.
func unionSeconds(iv [][2]time.Time) float64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
	var total time.Duration
	var curStart, curEnd time.Time
	for i, x := range iv {
		if i == 0 || x[0].After(curEnd) {
			if i > 0 {
				total += curEnd.Sub(curStart)
			}
			curStart, curEnd = x[0], x[1]
			continue
		}
		if x[1].After(curEnd) {
			curEnd = x[1]
		}
	}
	if len(iv) > 0 {
		total += curEnd.Sub(curStart)
	}
	return total.Seconds()
}

// usage is the process's CPU time and peak resident set so far.
type usage struct {
	user, sys time.Duration
	maxRSS    int64 // KiB
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	return usage{
		user:   time.Duration(ru.Utime.Nano()),
		sys:    time.Duration(ru.Stime.Nano()),
		maxRSS: ru.Maxrss,
	}
}

// fsType names the filesystem holding path, for the host record.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", st.Type)
}
