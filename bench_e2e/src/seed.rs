//! Everything random in a run derives from `--seed` through this module:
//! provisioning key seeds, adversarial roles and pacing offsets. The
//! program under test only ever sees the generated inputs.

/// SplitMix64: tiny, fast, and good enough to decorrelate derived streams.
pub struct Rng(u64);

impl Rng {
    /// A stream for `purpose` under the run's seed; distinct purposes give
    /// unrelated streams.
    pub fn derive(seed: u64, purpose: u64) -> Self {
        let mut r = Rng(seed ^ purpose.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Provisioning key seed of device `index` of application `app`.
pub fn key_seed(seed: u64, app: usize, index: usize) -> u64 {
    let mut r = Rng::derive(seed, 0x6B65_7900 + app as u64);
    r.0 = r.0.wrapping_add((index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    r.next_u64()
}

/// What a simulated device does with its attestation round. The attack
/// roles are those of `crates/integration/tests/net_soak.rs`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Role {
    /// Proves honestly; the verdict must be `Clean`.
    Honest,
    /// Flips one bit of the proof's tag; the verdict must be a MAC reject.
    TagFlip,
    /// Proves against a challenge of its own choosing; MAC reject.
    WrongChallenge,
    /// Submits its honest proof twice; the first verdict must be `Clean`,
    /// the second submission a session-layer reject.
    Duplicate,
    /// Alternates an honest round with a replay of that round's captured
    /// proof into its next session; the replay must be a session reject.
    Replayer,
}

/// Attack roles, in the order shares are dealt out.
pub const ATTACKS: [Role; 4] =
    [Role::TagFlip, Role::WrongChallenge, Role::Duplicate, Role::Replayer];

/// Roles for `n` devices: `adversarial_per_mille` ‰ of them adversarial
/// (rounded down to a multiple of the four attack roles, dealt evenly),
/// placed by a seed-derived shuffle. The *counts* do not depend on the
/// seed, only the placement does.
pub fn assign_roles(seed: u64, n: usize, adversarial_per_mille: usize) -> Vec<Role> {
    let per_attack = n * adversarial_per_mille / 1000 / ATTACKS.len();
    let mut roles = vec![Role::Honest; n];
    for (a, &attack) in ATTACKS.iter().enumerate() {
        roles[a * per_attack..(a + 1) * per_attack].fill(attack);
    }
    Rng::derive(seed, 0x726F_6C65).shuffle(&mut roles);
    roles
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn role_assignment_is_stable_per_seed_and_fixed_in_counts() {
        let a = assign_roles(7, 1024, 200);
        assert_eq!(a, assign_roles(7, 1024, 200), "same seed, same roles");
        let b = assign_roles(8, 1024, 200);
        assert_ne!(a, b, "another seed places them elsewhere");
        for roles in [&a, &b] {
            for attack in ATTACKS {
                assert_eq!(roles.iter().filter(|&&r| r == attack).count(), 51);
            }
            assert_eq!(roles.iter().filter(|&&r| r == Role::Honest).count(), 1024 - 204);
        }
        assert!(assign_roles(3, 10, 0).iter().all(|&r| r == Role::Honest));
    }

    /// A change to the derivation is a change to every recorded result, and
    /// must be made on purpose.
    #[test]
    fn role_assignment_is_pinned() {
        use Role::{Duplicate as D, Honest as H, Replayer as R, TagFlip as T, WrongChallenge as W};
        const PINNED: [Role; 16] = [W, H, H, H, H, R, H, T, R, T, D, W, H, H, D, H];
        assert_eq!(assign_roles(1, 16, 500), PINNED);
    }

    #[test]
    fn key_seeds_differ_by_seed_app_and_index() {
        let base = key_seed(1, 0, 0);
        assert_eq!(base, key_seed(1, 0, 0));
        assert_ne!(base, key_seed(2, 0, 0));
        assert_ne!(base, key_seed(1, 1, 0));
        assert_ne!(base, key_seed(1, 0, 1));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut v: Vec<u32> = (0..100).collect();
        Rng::derive(5, 1).shuffle(&mut v);
        assert_ne!(v, (0..100).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..100).collect::<Vec<_>>());
    }
}
