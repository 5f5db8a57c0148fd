#include "gm/grb/lagraph.hh"

#include <algorithm>
#include <cmath>

#include "gm/graph/builder.hh"
#include "gm/graph/stats.hh"
#include "gm/grb/ops.hh"
#include "gm/par/atomics.hh"
#include "gm/par/parallel_for.hh"
#include "gm/support/bitmap.hh"

namespace gm::grb::lagraph
{

GrbGraph
make_grb_graph(std::shared_ptr<const graph::CSRGraph> g)
{
    GM_ASSERT(g != nullptr, "make_grb_graph requires a graph");
    GrbGraph gg;
    gg.n = g->num_vertices();
    gg.directed = g->is_directed();
    gg.A = pattern_view_from_graph(*g, g);
    gg.AT = pattern_view_from_graph_transposed(*g, g);
    return gg;
}

GrbGraph
make_grb_graph(const graph::CSRGraph& g)
{
    return make_grb_graph(std::make_shared<const graph::CSRGraph>(g));
}

void
attach_weights(GrbGraph& gg, std::shared_ptr<const graph::WCSRGraph> wg)
{
    GM_ASSERT(wg != nullptr, "attach_weights requires a weighted graph");
    gg.WA = weight_view_from_wgraph(*wg, wg);
}

void
attach_weights(GrbGraph& gg, const graph::WCSRGraph& wg)
{
    attach_weights(gg, std::make_shared<const graph::WCSRGraph>(wg));
}

std::size_t
widened_grb_bytes(const graph::CSRGraph& g)
{
    const auto n = static_cast<std::size_t>(g.num_vertices());
    const std::size_t m_out = g.out_destinations().size();
    const std::size_t m_in = g.in_destinations().size();
    const std::size_t adjacency =                     // A + AT, widened
        2 * (n + 1) * sizeof(Index) +
        (m_out + m_in) * (sizeof(Index) + sizeof(std::uint8_t));
    const std::size_t weighted =                      // fully-owned WA
        (n + 1) * sizeof(Index) +
        m_out * (sizeof(Index) + sizeof(weight_t));
    const std::size_t degrees = n * sizeof(Index);    // out_degree cache
    return adjacency + weighted + degrees;
}

std::vector<vid_t>
bfs_parent(const GrbGraph& gg, vid_t source)
{
    const Index n = gg.n;
    Vector<Index> pi(n);
    pi.mark_bitmap();
    pi.raw_values()[source] = source;
    pi.set_present_atomic(source);
    pi.recount();

    Vector<Index> q(n);
    q.set(source, source);
    Vector<Index> w(n);

    Index edges_unexplored = gg.A.nvals();
    const auto deg_ptr = gg.A.row_ptr();

    while (q.nvals() > 0) {
        obs::counter_add("iterations", 1);
        obs::counter_max("frontier_peak",
                         static_cast<std::uint64_t>(q.nvals()));
        // LAGraph-style direction heuristic: pull when the frontier is a
        // sizable fraction of the graph, push otherwise.
        bool use_pull;
        if (q.rep() == Rep::kSparse) {
            Index frontier_edges = 0;
            for (Index i : q.indices())
                frontier_edges += deg_ptr[static_cast<std::size_t>(i) + 1] -
                                  deg_ptr[static_cast<std::size_t>(i)];
            use_pull = frontier_edges > edges_unexplored / 8;
            edges_unexplored -= frontier_edges;
            obs::counter_add("edges_traversed",
                             static_cast<std::uint64_t>(frontier_edges));
        } else {
            use_pull = q.nvals() > n / 16;
        }

        if (use_pull) {
            obs::counter_add("bfs.pull_steps", 1);
            q.convert(Rep::kBitmap); // conversion cost is part of the run
            mxv_pull<AnySecondi>(w, &pi, /*mask_complement=*/true, gg.AT, q);
        } else {
            obs::counter_add("bfs.push_steps", 1);
            q.convert(Rep::kSparse); // O(n) scan when coming from bitmap
            vxm_push<AnySecondi>(w, &pi, /*mask_complement=*/true, q, gg.A);
        }
        assign_masked(pi, w, w); // pi<w> = w
        std::swap(q, w);
    }

    std::vector<vid_t> parent(static_cast<std::size_t>(n), kInvalidVid);
    par::parallel_for<Index>(0, n, [&](Index i) {
        if (pi.present(i))
            parent[static_cast<std::size_t>(i)] =
                static_cast<vid_t>(pi.get(i));
    }, par::Schedule::kStatic);
    return parent;
}

std::vector<weight_t>
sssp(const GrbGraph& gg, vid_t source, weight_t delta)
{
    GM_ASSERT(gg.WA.nrows() == gg.n, "sssp requires attached weights");
    const Index n = gg.n;
    const weight_t inf = MinPlus::identity();

    Vector<std::int32_t> t(n);
    t.fill(inf);
    t.raw_values()[source] = 0;

    Vector<std::int32_t> s(n);   // current bucket members (sparse)
    Vector<std::int32_t> req(n); // relaxation requests

    std::int64_t k = 0;
    for (;;) {
        // GrB_select-style scan: collect bucket-k members and find the next
        // occupied bucket.  This full-vector pass every outer round is the
        // LAGraph behaviour that makes high-diameter graphs so costly.
        s.clear();
        std::int64_t next_bucket = std::numeric_limits<std::int64_t>::max();
        for (Index i = 0; i < n; ++i) {
            const weight_t d = t.raw_values()[i];
            if (d >= inf)
                continue;
            const std::int64_t b = d / delta;
            if (b == k)
                s.set(i, d);
            else if (b > k)
                next_bucket = std::min(next_bucket, b);
        }
        if (s.nvals() == 0) {
            if (next_bucket == std::numeric_limits<std::int64_t>::max())
                break;
            k = next_bucket;
            continue;
        }
        obs::counter_add("sssp.buckets", 1);
        obs::counter_max("frontier_peak",
                         static_cast<std::uint64_t>(s.nvals()));

        // Inner relaxation loop: settle bucket k.
        while (s.nvals() > 0) {
            obs::counter_add("iterations", 1);
            vxm_push<MinPlus>(req, static_cast<const Vector<std::int32_t>*>(
                                       nullptr),
                              false, s, gg.WA);
            s.clear();
            std::vector<Index> improved_in_bucket;
            req.present_bitmap().for_each_set([&](std::size_t j) {
                const weight_t cand = req.raw_values()[j];
                if (cand < t.raw_values()[j]) {
                    t.raw_values()[j] = cand;
                    if (cand / delta == k)
                        improved_in_bucket.push_back(
                            static_cast<Index>(j));
                }
            });
            for (Index j : improved_in_bucket)
                s.set(j, t.raw_values()[static_cast<std::size_t>(j)]);
        }
        ++k;
    }

    std::vector<weight_t> dist(t.raw_values(), t.raw_values() + n);
    for (auto& d : dist) {
        if (d >= inf)
            d = kInfWeight;
    }
    return dist;
}

std::vector<score_t>
pagerank(const GrbGraph& gg, double damping, double tolerance, int max_iters)
{
    const Index n = gg.n;
    const double base = (1.0 - damping) / static_cast<double>(n);
    Vector<double> r(n);
    r.fill(1.0 / static_cast<double>(n));
    Vector<double> contrib(n);
    contrib.fill(0.0);
    Vector<double> incoming(n);
    const auto deg_ptr = gg.A.row_ptr();

    for (int iter = 0; iter < max_iters; ++iter) {
        par::parallel_for<Index>(0, n, [&](Index i) {
            const Index d = deg_ptr[static_cast<std::size_t>(i) + 1] -
                            deg_ptr[static_cast<std::size_t>(i)];
            contrib.raw_values()[i] =
                d > 0 ? r.raw_values()[i] / static_cast<double>(d) : 0.0;
        }, par::Schedule::kStatic);

        mxv_pull<PlusSecond>(incoming,
                             static_cast<const Vector<double>*>(nullptr),
                             false, gg.AT, contrib);

        const double err = par::parallel_reduce<Index, double>(
            0, n, 0.0,
            [&](Index i) {
                const double next =
                    base + damping * incoming.raw_values()[i];
                const double delta = std::fabs(next - r.raw_values()[i]);
                r.raw_values()[i] = next;
                return delta;
            },
            [](double a, double b) { return a + b; });
        obs::counter_add("iterations", 1);
        obs::counter_add("edges_traversed",
                         static_cast<std::uint64_t>(gg.A.nvals()));
        if (err < tolerance)
            break;
    }
    return std::vector<score_t>(r.raw_values(), r.raw_values() + n);
}

std::vector<vid_t>
cc_fastsv(const GrbGraph& gg)
{
    const Index n = gg.n;
    std::vector<Index> f(static_cast<std::size_t>(n));
    std::vector<Index> gp(static_cast<std::size_t>(n));
    for (Index i = 0; i < n; ++i)
        f[static_cast<std::size_t>(i)] = i;
    gp = f;

    Vector<Index> gp_vec(n);
    Vector<Index> mngp(n);
    Vector<Index> mngp2(n);

    bool changed = true;
    while (changed) {
        changed = false;

        // gp = f[f]
        par::parallel_for<Index>(0, n, [&](Index i) {
            gp[static_cast<std::size_t>(i)] =
                f[static_cast<std::size_t>(f[static_cast<std::size_t>(i)])];
        }, par::Schedule::kStatic);

        // mngp = min over neighbors of gp (min-second over A', and over A
        // as well for weak connectivity on directed graphs).
        std::copy(gp.begin(), gp.end(), gp_vec.raw_values());
        gp_vec.mark_dense();
        mxv_pull<MinSecond>(mngp, static_cast<const Vector<Index>*>(nullptr),
                            false, gg.AT, gp_vec);
        if (gg.directed) {
            mxv_pull<MinSecond>(mngp2,
                                static_cast<const Vector<Index>*>(nullptr),
                                false, gg.A, gp_vec);
        }

        auto neighbor_min = [&](Index i) {
            Index m = MinSecond::identity();
            if (mngp.present(i))
                m = std::min(m, mngp.raw_values()[i]);
            if (gg.directed && mngp2.present(i))
                m = std::min(m, mngp2.raw_values()[i]);
            return m;
        };

        // Stochastic hooking: f[f[i]] = min(f[f[i]], mngp[i]), plus
        // aggressive hooking and shortcutting, all via atomic min.
        std::atomic<bool> any{false};
        par::parallel_for<Index>(0, n, [&](Index i) {
            const Index m = neighbor_min(i);
            bool local_changed = false;
            if (m < MinSecond::identity()) {
                const Index fi = par::atomic_load(
                    f[static_cast<std::size_t>(i)]);
                local_changed |= par::fetch_min(
                    f[static_cast<std::size_t>(fi)], m);
                local_changed |=
                    par::fetch_min(f[static_cast<std::size_t>(i)], m);
            }
            local_changed |= par::fetch_min(
                f[static_cast<std::size_t>(i)],
                gp[static_cast<std::size_t>(i)]);
            if (local_changed)
                any.store(true, std::memory_order_relaxed);
        });

        // Convergence test: gp must be stable.
        changed = any.load();
        if (!changed) {
            for (Index i = 0; i < n && !changed; ++i) {
                if (f[static_cast<std::size_t>(f[static_cast<std::size_t>(
                        i)])] != gp[static_cast<std::size_t>(i)])
                    changed = true;
            }
        }
    }

    // Final full compression to root labels.
    std::vector<vid_t> label(static_cast<std::size_t>(n));
    par::parallel_for<Index>(0, n, [&](Index i) {
        Index root = i;
        while (f[static_cast<std::size_t>(root)] != root)
            root = f[static_cast<std::size_t>(root)];
        label[static_cast<std::size_t>(i)] = static_cast<vid_t>(root);
    });
    return label;
}

std::vector<score_t>
bc(const GrbGraph& gg, const std::vector<vid_t>& sources)
{
    const Index n = gg.n;
    const std::size_t ns = sources.size();
    GM_ASSERT(ns >= 1, "bc requires at least one source");

    // Batched dense n-by-k state, the "dense 4-by-n matrix" formulation the
    // paper describes for LAGraph's batch Brandes.
    std::vector<double> paths(static_cast<std::size_t>(n) * ns, 0.0);
    std::vector<std::int32_t> lev(static_cast<std::size_t>(n) * ns, -1);
    std::vector<double> delta(static_cast<std::size_t>(n) * ns, 0.0);
    std::vector<score_t> scores(static_cast<std::size_t>(n), 0.0);

    std::vector<std::vector<Index>> levels; // union frontier per depth
    Bitmap in_next(static_cast<std::size_t>(n));

    std::vector<Index> frontier;
    for (std::size_t c = 0; c < ns; ++c) {
        const Index s = sources[c];
        paths[static_cast<std::size_t>(s) * ns + c] = 1.0;
        lev[static_cast<std::size_t>(s) * ns + c] = 0;
        frontier.push_back(s);
    }
    std::sort(frontier.begin(), frontier.end());
    frontier.erase(std::unique(frontier.begin(), frontier.end()),
                   frontier.end());

    const auto row_ptr = gg.A.row_ptr();
    const auto col_idx = gg.A.col_idx();

    std::int32_t d = 0;
    while (!frontier.empty()) {
        levels.push_back(frontier);
        in_next.reset();
        std::vector<Index> next;
        std::mutex next_mutex;

        par::parallel_blocks<std::size_t>(
            0, frontier.size(), [&](int, std::size_t lo, std::size_t hi) {
                std::vector<Index> local_next;
                for (std::size_t fi = lo; fi < hi; ++fi) {
                    const Index u = frontier[fi];
                    for (Index e = row_ptr[static_cast<std::size_t>(u)];
                         e < row_ptr[static_cast<std::size_t>(u) + 1]; ++e) {
                        const Index v =
                            col_idx[static_cast<std::size_t>(e)];
                        for (std::size_t c = 0; c < ns; ++c) {
                            const std::size_t ui =
                                static_cast<std::size_t>(u) * ns + c;
                            // Another lane may be claiming this cell for
                            // level d + 1 (CAS below), so read it atomically.
                            if (par::atomic_load(lev[ui]) != d)
                                continue;
                            const std::size_t vi =
                                static_cast<std::size_t>(v) * ns + c;
                            std::int32_t vlev = par::atomic_load(lev[vi]);
                            if (vlev == -1) {
                                if (par::compare_and_swap(lev[vi],
                                                          std::int32_t{-1},
                                                          d + 1)) {
                                    vlev = d + 1;
                                    if (in_next.set_bit_atomic_and_test(
                                            static_cast<std::size_t>(v)))
                                        local_next.push_back(v);
                                } else {
                                    vlev = par::atomic_load(lev[vi]);
                                }
                            }
                            if (vlev == d + 1)
                                par::atomic_add_float(delta[vi], paths[ui]);
                        }
                    }
                }
                std::lock_guard<std::mutex> lock(next_mutex);
                next.insert(next.end(), local_next.begin(),
                            local_next.end());
            });

        // Fold the accumulated path contributions (staged in `delta` to
        // avoid read/write races on `paths`) into paths.
        par::parallel_for<std::size_t>(0, next.size(), [&](std::size_t i) {
            const Index v = next[i];
            for (std::size_t c = 0; c < ns; ++c) {
                const std::size_t vi = static_cast<std::size_t>(v) * ns + c;
                paths[vi] += delta[vi];
                delta[vi] = 0.0;
            }
        });
        frontier = std::move(next);
        ++d;
    }

    std::fill(delta.begin(), delta.end(), 0.0);
    for (int depth = static_cast<int>(levels.size()) - 2; depth >= 0;
         --depth) {
        const auto& level = levels[static_cast<std::size_t>(depth)];
        par::parallel_for<std::size_t>(0, level.size(), [&](std::size_t i) {
            const Index u = level[i];
            double score_add = 0.0;
            for (std::size_t c = 0; c < ns; ++c) {
                const std::size_t ui = static_cast<std::size_t>(u) * ns + c;
                if (lev[ui] != depth)
                    continue;
                double delta_u = 0.0;
                for (Index e = row_ptr[static_cast<std::size_t>(u)];
                     e < row_ptr[static_cast<std::size_t>(u) + 1]; ++e) {
                    const Index v = col_idx[static_cast<std::size_t>(e)];
                    const std::size_t vi =
                        static_cast<std::size_t>(v) * ns + c;
                    if (lev[vi] == depth + 1)
                        delta_u +=
                            (paths[ui] / paths[vi]) * (1.0 + delta[vi]);
                }
                delta[ui] = delta_u;
                if (u != sources[c])
                    score_add += delta_u;
            }
            if (score_add != 0.0)
                scores[static_cast<std::size_t>(u)] += score_add;
        });
    }

    const score_t biggest =
        *std::max_element(scores.begin(), scores.end());
    if (biggest > 0) {
        for (auto& s : scores)
            s /= biggest;
    }
    return scores;
}

std::uint64_t
tc(const graph::CSRGraph& g)
{
    GM_ASSERT(!g.is_directed(), "tc requires an undirected graph");
    const graph::CSRGraph* use = &g;
    graph::CSRGraph relabeled;
    if (graph::worth_relabeling_by_degree(g)) {
        relabeled = graph::relabel_by_degree(g);
        use = &relabeled;
    }

    // One boolean matrix serves as A, L and U: rows are sorted, so per-row
    // split points into A's own adjacency give tril as [row_ptr[i],
    // lsplit[i]) and triu as [usplit[i], row_ptr[i+1]) without
    // materializing three copies.
    const PatternMatrix A = pattern_view_from_graph(*use);
    const auto row_ptr = A.row_ptr();
    const auto col_idx = A.col_idx();
    const Index n = A.nrows();

    std::vector<Index> lsplit(static_cast<std::size_t>(n));
    std::vector<Index> usplit(static_cast<std::size_t>(n));
    par::parallel_for<Index>(0, n, [&](Index i) {
        const vid_t* first = col_idx.data() + row_ptr[static_cast<std::size_t>(i)];
        const vid_t* last = col_idx.data() + row_ptr[static_cast<std::size_t>(i) + 1];
        lsplit[static_cast<std::size_t>(i)] = static_cast<Index>(
            std::lower_bound(first, last, static_cast<vid_t>(i)) -
            col_idx.data());
        usplit[static_cast<std::size_t>(i)] = static_cast<Index>(
            std::upper_bound(first, last, static_cast<vid_t>(i)) -
            col_idx.data());
    }, par::Schedule::kStatic);

    // C<L> = L * U' materialized over L's pattern, then reduced (the paper
    // notes SuiteSparse builds the whole matrix and then reduces it — we
    // deliberately keep that non-fused shape).
    std::vector<Index> lptr(static_cast<std::size_t>(n) + 1, 0);
    for (Index i = 0; i < n; ++i) {
        lptr[static_cast<std::size_t>(i) + 1] =
            lptr[static_cast<std::size_t>(i)] +
            (lsplit[static_cast<std::size_t>(i)] -
             row_ptr[static_cast<std::size_t>(i)]);
    }
    std::vector<std::int64_t> cvals(
        static_cast<std::size_t>(lptr[static_cast<std::size_t>(n)]), 0);

    par::parallel_for<Index>(
        0, n,
        [&](Index i) {
            Index out = lptr[static_cast<std::size_t>(i)];
            for (Index e = row_ptr[static_cast<std::size_t>(i)];
                 e < lsplit[static_cast<std::size_t>(i)]; ++e, ++out) {
                const Index j = col_idx[static_cast<std::size_t>(e)];
                // cvals[out] = |L.row(i) ∩ U.row(j)| via sorted merge.
                Index a = row_ptr[static_cast<std::size_t>(i)];
                const Index a_end = lsplit[static_cast<std::size_t>(i)];
                Index b = usplit[static_cast<std::size_t>(j)];
                const Index b_end = row_ptr[static_cast<std::size_t>(j) + 1];
                std::int64_t count = 0;
                while (a < a_end && b < b_end) {
                    const vid_t ca = col_idx[static_cast<std::size_t>(a)];
                    const vid_t cb = col_idx[static_cast<std::size_t>(b)];
                    if (ca == cb) {
                        ++count;
                        ++a;
                        ++b;
                    } else if (ca < cb) {
                        ++a;
                    } else {
                        ++b;
                    }
                }
                cvals[static_cast<std::size_t>(out)] = count;
            }
        },
        par::Schedule::kDynamic, Index{64});

    return static_cast<std::uint64_t>(par::parallel_reduce<std::size_t,
                                                           std::int64_t>(
        0, cvals.size(), std::int64_t{0},
        [&](std::size_t i) { return cvals[i]; },
        [](std::int64_t a, std::int64_t b) { return a + b; }));
}

} // namespace gm::grb::lagraph
