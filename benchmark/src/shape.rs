//! The paper-shape checks: qualitative results of the iDO paper (Fig. 5,
//! Fig. 7, Table I) and of this repo's EXPERIMENTS.md, restated over the
//! benchmark's own points. The list is fixed here; `paper_shape_pass_share`
//! is the share that holds. The model has no hardware reference in this
//! repo, so these are the only accuracy figure it has — see README.md for
//! which checks fail at HEAD.

use ido_compiler::Scheme;

use crate::workloads::Rep;

type Checks = Vec<(String, bool)>;

/// Lock-delineated schemes other than `Origin`, as run by `micro_scale`.
const MICRO_DURABLE: [Scheme; 4] = [
    Scheme::Ido,
    Scheme::Atlas,
    Scheme::Mnemosyne,
    Scheme::JustDo,
];

/// Fig. 5 at 4 threads, from the fig5 binary's shape checks.
pub fn memcached(rep: &Rep) -> Checks {
    let m = |s| rep.mops_at("memcached", s, 4);
    let (origin, ido) = (m(Scheme::Origin), m(Scheme::Ido));
    vec![
        (
            "memcached: Origin is fastest".into(),
            Scheme::ALL
                .iter()
                .all(|s| *s == Scheme::Origin || origin > m(*s)),
        ),
        (
            "memcached: iDO >= 2x Atlas".into(),
            ido >= 2.0 * m(Scheme::Atlas),
        ),
        (
            "memcached: iDO >= 2x JUSTDO".into(),
            ido >= 2.0 * m(Scheme::JustDo),
        ),
        (
            "memcached: iDO >= 2x NVThreads".into(),
            ido >= 2.0 * m(Scheme::Nvthreads),
        ),
        (
            "memcached: iDO reaches 20-40% of Origin".into(),
            origin > 0.0 && (0.20..=0.40).contains(&(ido / origin)),
        ),
        (
            "memcached: Mnemosyne beats iDO under the coarse lock".into(),
            m(Scheme::Mnemosyne) > ido,
        ),
    ]
}

/// Fig. 7 at 1-64 threads, from the fig7 binary's shape summaries and
/// EXPERIMENTS.md's claim table, plus the lock-free extension.
pub fn micro(rep: &Rep) -> Checks {
    let structures = ["stack", "queue", "list", "map"];
    let m = |g, s, t| rep.mops_at(g, s, t);
    let mut checks = vec![
        (
            "micro: Origin is fastest at every point".into(),
            structures.iter().all(|g| {
                [1, 4, 16, 64].iter().all(|t| {
                    MICRO_DURABLE
                        .iter()
                        .all(|s| m(g, Scheme::Origin, *t) > m(g, *s, *t))
                })
            }),
        ),
        (
            "micro: hash map under iDO scales >= 8x from 1T to 16T".into(),
            m("map", Scheme::Ido, 16) >= 8.0 * m("map", Scheme::Ido, 1),
        ),
        (
            "micro: Mnemosyne saturates on the hash map (16T < 2x 4T)".into(),
            m("map", Scheme::Mnemosyne, 16) < 2.0 * m("map", Scheme::Mnemosyne, 4),
        ),
        (
            "micro: Atlas saturates on the hash map (64T < 2x 4T)".into(),
            m("map", Scheme::Atlas, 64) < 2.0 * m("map", Scheme::Atlas, 4),
        ),
        (
            "micro: the stack serializes for every scheme (16T < 3x 1T)".into(),
            MICRO_DURABLE
                .iter()
                .all(|s| m("stack", *s, 16) < 3.0 * m("stack", *s, 1)),
        ),
        (
            "micro: Mnemosyne beats iDO on the ordered list at 1T".into(),
            m("list", Scheme::Mnemosyne, 1) > m("list", Scheme::Ido, 1),
        ),
        (
            "micro: iDO overtakes Mnemosyne on the hash map at 64T".into(),
            m("map", Scheme::Ido, 64) > m("map", Scheme::Mnemosyne, 64),
        ),
        (
            "micro: lock-free map beats the iDO hash map at 16T".into(),
            m("lfmap", Scheme::Nvtraverse, 16) > m("map", Scheme::Ido, 16),
        ),
        (
            "micro: NVTraverse >= LfEager on the lock-free map".into(),
            [1, 16]
                .iter()
                .all(|t| m("lfmap", Scheme::Nvtraverse, *t) >= m("lfmap", Scheme::LfEager, *t)),
        ),
    ];
    for t in [16, 64] {
        checks.push((
            format!("micro: iDO >= Atlas and JUSTDO on every structure at {t}T"),
            structures.iter().all(|g| {
                m(g, Scheme::Ido, t) >= m(g, Scheme::Atlas, t)
                    && m(g, Scheme::Ido, t) >= m(g, Scheme::JustDo, t)
            }),
        ));
    }
    checks
}
