package main

import (
	"math"
	"sort"
)

// summary is a metric as the record carries it: the median of its
// samples, their quartiles and the sample count.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

// summarize reduces samples to a summary. Quartiles follow Python's
// statistics.quantiles(n=4) (the exclusive method), so figures agree
// with anyone re-deriving them from the record.
func summarize(samples []float64, unit string) summary {
	q := quartiles(samples)
	return summary{Median: q[1], Q1: q[0], Q3: q[2], N: len(samples), Unit: unit}
}

func quartiles(samples []float64) [3]float64 {
	data := append([]float64(nil), samples...)
	sort.Float64s(data)
	n := len(data)
	switch n {
	case 0:
		return [3]float64{}
	case 1:
		return [3]float64{data[0], data[0], data[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return q
}

// percentile returns the p-th percentile (0 < p < 100) of samples by
// nearest rank.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	data := append([]float64(nil), samples...)
	sort.Float64s(data)
	rank := int(math.Ceil(p / 100 * float64(len(data))))
	if rank < 1 {
		rank = 1
	}
	return data[rank-1]
}

func median(samples []float64) float64 { return quartiles(samples)[1] }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
