//! Breadth-first traversal, connected components, and bipartiteness.

use crate::{Graph, VertexId};

/// Vertices in breadth-first order from `start`, restricted to the
/// component of `start`.
///
/// # Panics
///
/// Panics if `start` is out of range.
pub fn bfs_order(g: &Graph, start: VertexId) -> Vec<VertexId> {
    let mut seen = vec![false; g.num_vertices()];
    let mut queue = std::collections::VecDeque::new();
    let mut order = Vec::new();
    seen[start as usize] = true;
    queue.push_back(start);
    while let Some(v) = queue.pop_front() {
        order.push(v);
        for &u in g.neighbors(v) {
            if !seen[u as usize] {
                seen[u as usize] = true;
                queue.push_back(u);
            }
        }
    }
    order
}

/// For each vertex, the dense id (`0..count`) of its connected
/// component, together with the number of components. Component ids are
/// assigned in order of each component's smallest vertex.
pub fn connected_components(g: &Graph) -> (Vec<u32>, usize) {
    let mut uf = crate::union_find::UnionFind::new(g.num_vertices());
    for (u, v, _) in g.edges() {
        uf.union(u, v);
    }
    let labels = uf.dense_labels();
    let count = uf.num_sets();
    (labels, count)
}

/// Whether the graph is connected. The empty graph and one-vertex graph
/// are considered connected.
pub fn is_connected(g: &Graph) -> bool {
    g.num_vertices() <= 1 || connected_components(g).1 == 1
}

/// If the graph is bipartite, a two-coloring (`false`/`true` classes);
/// otherwise `None`. Isolated vertices are colored `false`.
pub fn bipartition(g: &Graph) -> Option<Vec<bool>> {
    let n = g.num_vertices();
    let mut color: Vec<Option<bool>> = vec![None; n];
    let mut queue = std::collections::VecDeque::new();
    for root in 0..n as VertexId {
        if color[root as usize].is_some() {
            continue;
        }
        color[root as usize] = Some(false);
        queue.push_back(root);
        while let Some(v) = queue.pop_front() {
            // lint: allow(no-panic) — a vertex is queued only after it is colored
            let cv = color[v as usize].expect("queued vertices are colored");
            for &u in g.neighbors(v) {
                match color[u as usize] {
                    None => {
                        color[u as usize] = Some(!cv);
                        queue.push_back(u);
                    }
                    Some(cu) if cu == cv => return None,
                    Some(_) => {}
                }
            }
        }
    }
    Some(color.into_iter().map(|c| c.unwrap_or(false)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> Graph {
        let edges: Vec<_> = (0..n - 1)
            .map(|i| (i as VertexId, (i + 1) as VertexId))
            .collect();
        Graph::from_edges(n, &edges).unwrap()
    }

    fn cycle(n: usize) -> Graph {
        let edges: Vec<_> = (0..n)
            .map(|i| (i as VertexId, ((i + 1) % n) as VertexId))
            .collect();
        Graph::from_edges(n, &edges).unwrap()
    }

    #[test]
    fn bfs_order_path() {
        let g = path(5);
        assert_eq!(bfs_order(&g, 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(bfs_order(&g, 2), vec![2, 1, 3, 0, 4]);
    }

    #[test]
    fn bfs_order_restricted_to_component() {
        let g = Graph::from_edges(4, &[(0, 1)]).unwrap();
        assert_eq!(bfs_order(&g, 0), vec![0, 1]);
        assert_eq!(bfs_order(&g, 2), vec![2]);
    }

    #[test]
    fn components_of_two_cycles() {
        // Two 3-cycles.
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]).unwrap();
        let (labels, count) = connected_components(&g);
        assert_eq!(count, 2);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[0], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_ne!(labels[0], labels[3]);
    }

    #[test]
    fn connectivity() {
        assert!(is_connected(&cycle(5)));
        assert!(is_connected(&Graph::empty(1)));
        assert!(is_connected(&Graph::empty(0)));
        assert!(!is_connected(&Graph::empty(2)));
        assert!(!is_connected(
            &Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap()
        ));
    }

    #[test]
    fn even_cycle_bipartite_odd_not() {
        assert!(bipartition(&cycle(6)).is_some());
        assert!(bipartition(&cycle(5)).is_none());
    }

    #[test]
    fn bipartition_is_proper() {
        let g = path(8);
        let coloring = bipartition(&g).unwrap();
        for (u, v, _) in g.edges() {
            assert_ne!(coloring[u as usize], coloring[v as usize]);
        }
    }

    #[test]
    fn bipartition_handles_isolated_vertices() {
        let g = Graph::from_edges(3, &[(0, 1)]).unwrap();
        let coloring = bipartition(&g).unwrap();
        assert!(!coloring[2]);
    }
}
