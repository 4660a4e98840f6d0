//! Self-organizing map: the Fig. 10 population grid.
//!
//! The right panel of Fig. 10 shows a grid where "cells are profile
//! shapes and the color is the observed population". A SOM produces
//! exactly that: each cell holds a prototype profile-shape vector;
//! mapping a dataset counts the population per cell; similar shapes
//! land in neighboring cells.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A rectangular SOM over fixed-dimension feature vectors.
#[derive(Debug, Clone)]
pub struct SelfOrganizingMap {
    /// Grid width.
    pub width: usize,
    /// Grid height.
    pub height: usize,
    dim: usize,
    /// Cell prototypes, row-major, `width*height` entries of `dim`.
    weights: Vec<Vec<f64>>,
}

impl SelfOrganizingMap {
    /// Random-initialized map (deterministic under `seed`).
    pub fn new(width: usize, height: usize, dim: usize, seed: u64) -> SelfOrganizingMap {
        let mut rng = StdRng::seed_from_u64(seed);
        let weights = (0..width * height)
            .map(|_| (0..dim).map(|_| rng.random::<f64>()).collect())
            .collect();
        SelfOrganizingMap {
            width,
            height,
            dim,
            weights,
        }
    }

    fn grid_pos(&self, cell: usize) -> (usize, usize) {
        (cell % self.width, cell / self.width)
    }

    fn dist2(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
    }

    /// Best-matching cell index for a sample.
    pub fn bmu(&self, sample: &[f64]) -> usize {
        assert_eq!(sample.len(), self.dim);
        self.weights
            .iter()
            .enumerate()
            .min_by(|a, b| {
                Self::dist2(a.1, sample)
                    .partial_cmp(&Self::dist2(b.1, sample))
                    .expect("finite distances")
            })
            .map(|(i, _)| i)
            .expect("non-empty grid")
    }

    /// Train with exponentially decaying learning rate and neighborhood.
    pub fn train(&mut self, samples: &[Vec<f64>], epochs: usize) {
        assert!(!samples.is_empty());
        let total_steps = (epochs * samples.len()) as f64;
        let sigma0 = (self.width.max(self.height) as f64) / 2.0;
        let lr0 = 0.3;
        let mut step = 0.0;
        for _ in 0..epochs {
            for sample in samples {
                let t = step / total_steps;
                let sigma = (sigma0 * (-3.0 * t).exp()).max(0.5);
                let lr = lr0 * (-3.0 * t).exp();
                let bmu = self.bmu(sample);
                let (bx, by) = self.grid_pos(bmu);
                for cell in 0..self.weights.len() {
                    let (x, y) = self.grid_pos(cell);
                    let d2 = ((x as f64 - bx as f64).powi(2) + (y as f64 - by as f64).powi(2))
                        / (2.0 * sigma * sigma);
                    if d2 > 9.0 {
                        continue; // negligible influence
                    }
                    let h = lr * (-d2).exp();
                    for (w, s) in self.weights[cell].iter_mut().zip(sample) {
                        *w += h * (s - *w);
                    }
                }
                step += 1.0;
            }
        }
    }

    /// Population per cell (`width*height` counts, row-major).
    pub fn population(&self, samples: &[Vec<f64>]) -> Vec<u64> {
        let mut counts = vec![0u64; self.weights.len()];
        for s in samples {
            counts[self.bmu(s)] += 1;
        }
        counts
    }

    /// Dominant label per cell given labeled samples (`None` for empty
    /// cells) — used to render the archetype-separation view.
    pub fn dominant_labels(&self, samples: &[Vec<f64>], labels: &[String]) -> Vec<Option<String>> {
        use std::collections::HashMap;
        let mut per_cell: Vec<HashMap<&str, u64>> = vec![HashMap::new(); self.weights.len()];
        for (s, l) in samples.iter().zip(labels) {
            *per_cell[self.bmu(s)].entry(l.as_str()).or_insert(0) += 1;
        }
        per_cell
            .into_iter()
            .map(|counts| {
                counts
                    .into_iter()
                    .max_by_key(|&(label, n)| (n, std::cmp::Reverse(label)))
                    .map(|(label, _)| label.to_string())
            })
            .collect()
    }

    /// Prototype of one cell.
    pub fn prototype(&self, cell: usize) -> &[f64] {
        &self.weights[cell]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three tight clusters in 4-D.
    fn clusters() -> (Vec<Vec<f64>>, Vec<String>) {
        let mut rng = StdRng::seed_from_u64(5);
        let centers = [
            (vec![0.0, 0.0, 0.0, 0.0], "a"),
            (vec![1.0, 1.0, 0.0, 0.0], "b"),
            (vec![0.0, 0.0, 1.0, 1.0], "c"),
        ];
        let mut samples = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..60 {
            for (center, label) in &centers {
                let s: Vec<f64> = center
                    .iter()
                    .map(|c| c + 0.05 * (rng.random::<f64>() - 0.5))
                    .collect();
                samples.push(s);
                labels.push(label.to_string());
            }
        }
        (samples, labels)
    }

    #[test]
    fn training_is_deterministic() {
        let (samples, _) = clusters();
        let run = || {
            let mut som = SelfOrganizingMap::new(4, 4, 4, 7);
            som.train(&samples, 3);
            som.weights.clone()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn clusters_map_to_distinct_cells() {
        let (samples, labels) = clusters();
        let mut som = SelfOrganizingMap::new(5, 5, 4, 7);
        som.train(&samples, 5);
        // Each cluster's samples should concentrate on a different BMU.
        let mut bmus_per_label = std::collections::HashMap::new();
        for (s, l) in samples.iter().zip(&labels) {
            bmus_per_label
                .entry(l.clone())
                .or_insert_with(std::collections::HashSet::new)
                .insert(som.bmu(s));
        }
        let a = &bmus_per_label["a"];
        let b = &bmus_per_label["b"];
        let c = &bmus_per_label["c"];
        assert!(a.is_disjoint(b), "clusters a/b share cells");
        assert!(a.is_disjoint(c), "clusters a/c share cells");
        assert!(b.is_disjoint(c), "clusters b/c share cells");
    }

    #[test]
    fn population_sums_to_sample_count() {
        let (samples, _) = clusters();
        let mut som = SelfOrganizingMap::new(3, 3, 4, 1);
        som.train(&samples, 2);
        let pop = som.population(&samples);
        assert_eq!(pop.iter().sum::<u64>() as usize, samples.len());
        assert_eq!(pop.len(), 9);
    }

    #[test]
    fn dominant_labels_cover_populated_cells() {
        let (samples, labels) = clusters();
        let mut som = SelfOrganizingMap::new(4, 4, 4, 3);
        som.train(&samples, 4);
        let pop = som.population(&samples);
        let dom = som.dominant_labels(&samples, &labels);
        for (i, &count) in pop.iter().enumerate() {
            assert_eq!(dom[i].is_some(), count > 0, "cell {i}");
        }
        let distinct: std::collections::HashSet<_> = dom.iter().flatten().collect();
        assert_eq!(distinct.len(), 3, "all three clusters visible");
    }
}
