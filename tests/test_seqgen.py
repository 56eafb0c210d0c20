"""Generator tests with independent digit/factorization oracles."""

import tracemalloc
from fractions import Fraction
from itertools import accumulate
from operator import mul
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from measeq import primes, seqgen
from measeq.cli import parse_sequence_spec
from measeq.density import APSet
from measeq.errors import (
    CapacityError,
    DomainError,
    SpecificationError,
    WindowRangeError,
)
from measeq.seqgen import (
    AdditiveFunctionSpec,
    BaseChain,
    CallableSequence,
    SequenceWindow,
    SimpleSpec,
    VdcSequence,
    apply_pointwise,
    gen_additive,
    gen_simple,
    gen_vdc,
    subsequence,
)


def radical_inverse_oracle(n: int, b: int) -> Fraction:
    """Digit-reversal oracle: mirror the base-b digits of n across the point."""
    digs = []
    while n:
        n, d = divmod(n, b)
        digs.append(d)
    val = Fraction(0)
    for j, d in enumerate(digs):
        val += Fraction(d, b ** (j + 1))
    return val


def trial_division_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# geometric ratios 2-100, factorial chains and mixed-radix chains with no growth rule
any_chain = st.one_of(
    st.builds(BaseChain.geometric, st.integers(2, 100), st.integers(1, 4)),
    st.builds(BaseChain.factorial, st.integers(2, 7)),
    st.just(BaseChain((1, 2, 6, 12, 60))),
    st.lists(st.integers(2, 12), min_size=1, max_size=6).map(
        lambda steps: BaseChain(tuple(accumulate(steps, mul, initial=1)))
    ),
)


def spec_outcome(items):
    """What building a spec from `items` gives: its pairs, or the error message."""
    try:
        return AdditiveFunctionSpec(items, 0.0).prime_values
    except SpecificationError as e:
        return str(e)


class TestVdc:
    def test_base2_small(self):
        chain = BaseChain.geometric(2, 12)
        assert gen_vdc(1, chain) == 0.5
        assert gen_vdc(4, chain) == 0.125

    def test_base3_example(self):
        chain = BaseChain.geometric(3, 8)
        assert gen_vdc(5, chain) == pytest.approx(7 / 9, abs=1e-15)

    @given(st.integers(0, 5000), st.integers(2, 7))
    def test_matches_digit_reversal_oracle(self, n, b):
        chain = BaseChain.geometric(b, 1).ensure_capacity(n)
        assert gen_vdc(n, chain) == pytest.approx(
            float(radical_inverse_oracle(n, b)), abs=1e-15
        )

    @given(st.integers(0, 40319))
    def test_digit_round_trip_factorial_chain(self, n):
        chain = BaseChain.factorial(8)
        digs = chain.digits(n)
        assert sum(a * q for a, q in zip(digs, chain.moduli)) == n

    def test_capacity_error(self):
        chain = BaseChain((1, 2, 4))
        with pytest.raises(CapacityError):
            gen_vdc(4, chain)

    def test_injective_on_window(self):
        w = VdcSequence(BaseChain.geometric(2, 12)).window(4096)
        assert np.unique(w.values).size == 4096

    def test_congruence_contracts_values(self):
        # indices congruent mod Q_j differ by at most 1/Q_j, exhaustively
        w = VdcSequence(BaseChain.geometric(2, 13)).window(4096)
        idx = np.arange(1, 4097)
        for qj in (2, 4, 8, 16, 32, 64):
            for r in range(qj):
                vals = w.values[idx % qj == r]
                assert vals.max() - vals.min() <= 1 / qj

    @pytest.mark.parametrize("handle", [
        pytest.param(parse_sequence_spec(spec), id=spec["kind"]) for spec in (
            {"kind": "vdc", "chain": {"ratio": 3}},
            {"kind": "additive", "tail": 0.005, "primes": {
                str(p): p**-2.0 for p in range(2, 201) if trial_division_factors(p) == [p]}},
            {"kind": "simple", "parts": [{"r": 1, "m": 3, "c": 0.5}, {"r": 0, "m": 6, "c": -2}]},
            {"kind": "periodic", "values": [0.25, 1, -3]},
            {"kind": "uniform", "n": 7},
        )
    ] + [pytest.param(CallableSequence(lambda n: n % 5 / 5), id="callable")])
    def test_window_matches_pointwise_eval(self, handle):
        # every sequence kind is one object with eval, window and witness
        w = handle.window(200)
        for n in (1, 7, 50, 200):
            assert w.value(n) == handle.eval(n)
        assert callable(handle.witness)

    @given(
        st.one_of(
            st.builds(BaseChain.geometric, st.integers(2, 11), st.integers(1, 4)),
            st.builds(BaseChain.factorial, st.integers(2, 6)),
        ),
        st.lists(st.integers(0, 50_000), max_size=40),
    )
    def test_values_at_equals_pointwise_eval(self, chain, ns):
        got = VdcSequence(chain).values_at(np.array(ns, dtype=np.int64)).tolist()
        assert got == [VdcSequence(chain).eval(n) for n in ns]

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_window_equals_values_at(self, data):
        # values_at is the per-digit loop the recurrence replaced in window
        chain = data.draw(any_chain)
        limit = min(chain.capacity - 1, 200_000) if chain.growth is None else 200_000
        near_moduli = [q + d for q in chain.ensure_capacity(limit).moduli for d in (-1, 0, 1)]
        N = data.draw(st.one_of(
            st.just(1),
            st.sampled_from([n for n in near_moduli if 1 <= n <= limit]),
            st.integers(1, limit),
        ))
        got = VdcSequence(chain).window(N).values
        assert got.tolist() == VdcSequence(chain).values_at(np.arange(1, N + 1)).tolist()

    @pytest.mark.parametrize("chain, N", [
        (BaseChain.geometric(2, 1), 2**20 + 1),
        (BaseChain.geometric(97, 1), 97**3 - 1),
        (BaseChain.factorial(2), 362_880 + 1),  # 9! + 1
    ])
    def test_long_window_equals_values_at(self, chain, N):
        got = VdcSequence(chain).window(N).values
        assert got.tolist() == VdcSequence(chain).values_at(np.arange(1, N + 1)).tolist()

    def test_window_builds_no_digit_past_its_end(self):
        # the last level repeats the values so far only for the digits 0..N // Q_j
        tracemalloc.start()
        try:
            VdcSequence(BaseChain.geometric(10**6, 1)).window(10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    @pytest.mark.parametrize("moduli", [(1, 2, 6, 12, 60), (1, 5), (1, 3, 9)])
    def test_window_past_a_fixed_chain_is_a_capacity_error(self, moduli):
        handle = VdcSequence(BaseChain(moduli))
        assert len(handle.window(moduli[-1] - 1)) == moduli[-1] - 1
        with pytest.raises(CapacityError, match="no growth rule"):
            handle.window(moduli[-1])

    @pytest.mark.parametrize("N", [0, -1, -7])
    def test_empty_window_is_a_value_error(self, N):
        with pytest.raises(ValueError, match="window needs at least one value"):
            VdcSequence(BaseChain.geometric(2, 3)).window(N)

    def test_witness_levels(self):
        handle = VdcSequence(BaseChain.geometric(2, 1))
        assert handle.witness(1 / 8) == 8
        assert handle.witness(0.3) == 4


class TestAdditive:
    def test_empty_sum_at_one(self):
        spec = AdditiveFunctionSpec({2: 0.25, 3: 1 / 9, 5: 0.01, 7: 0.001}, 0.0)
        assert gen_additive(10, spec).value(1) == 0.0

    def test_distinct_primes_add(self):
        spec = AdditiveFunctionSpec(
            {2: 0.25, 3: 1 / 9, 5: 0.01, 7: 0.001, 11: 1e-5, 13: 1e-6}, 0.0
        )
        w = gen_additive(13, spec)
        assert w.value(12) == pytest.approx(13 / 36, abs=1e-15)

    def test_prime_powers_flatten(self):
        spec = AdditiveFunctionSpec({2: 0.25, 3: 1 / 9, 5: 0.01, 7: 0.001}, 0.0)
        w = gen_additive(10, spec)
        assert w.value(8) == 0.25
        assert w.value(4) == w.value(2) == 0.25

    def test_missing_prime_is_an_error(self):
        spec = AdditiveFunctionSpec({2: 0.25}, 0.0)
        with pytest.raises(SpecificationError):
            gen_additive(10, spec)

    def test_sieve_matches_factorization_oracle(self):
        spec = AdditiveFunctionSpec.from_function(lambda p: 4.0**-p, 2000)
        w = gen_additive(2000, spec)
        for n in range(1, 2000 + 1, 37):
            expected = sum(4.0**-p for p in trial_division_factors(n))
            assert w.value(n) == pytest.approx(expected, abs=1e-15)

    @given(
        st.one_of(
            st.integers(1, 3000),
            # around the square of a prime, where a prime joins the slice adds
            st.tuples(st.sampled_from([2, 3, 5, 7, 11, 23, 47, 53]), st.integers(-1, 1))
            .map(lambda t: t[0] ** 2 + t[1]),
        ),
        st.one_of(
            # 2^-p and 4^-p underflow to 0 for the larger primes
            st.sampled_from([1.01, 1.5, 2.0, 4.0]).map(lambda b: lambda p: b**-p),
            st.sampled_from([0.5, 1.5, 2.0, 3.0]).map(lambda e: lambda p: float(p) ** -e),
        ),
        st.integers(0, 2),
    )
    @settings(max_examples=150, deadline=None)
    def test_sieve_bytes_equal_the_per_prime_slice_loop(self, N, fn, drop):
        # `drop` removes the spec's value of its (drop)th-largest prime, if it has one
        spec = AdditiveFunctionSpec.from_function(fn, N)
        if drop and len(spec.prime_values) >= drop:
            pairs = list(spec.prime_values)
            del pairs[-drop]
            spec = AdditiveFunctionSpec(pairs, spec.tail_bound)
        try:
            want = oracles.gen_additive_oracle(N, spec)
        except SpecificationError as e:
            with pytest.raises(SpecificationError, match=f"^{e}$"):
                gen_additive(N, spec)
            return
        assert gen_additive(N, spec).values.tobytes() == want.tobytes()

    def test_missing_prime_names_the_smallest(self):
        spec = AdditiveFunctionSpec({2: 0.25, 7: 0.125, 13: 0.0625}, 0.0)
        with pytest.raises(SpecificationError, match=r"^spec is missing prime 3 <= 20$"):
            gen_additive(20, spec)

    def test_from_function_sieves_once(self):
        sieve = mock.Mock(wraps=primes.prime_mask)
        with mock.patch.object(primes, "prime_mask", sieve), \
                mock.patch.object(seqgen, "prime_mask", sieve):
            spec = AdditiveFunctionSpec.from_function(lambda p: 2.0**-p, 1000)
        assert [c.args for c in sieve.call_args_list] == [(1000,)]
        assert spec == AdditiveFunctionSpec({p: 2.0**-p for p, _ in spec.prime_values},
                                            spec.tail_bound)

    @given(st.lists(st.sampled_from([0.0, -0.0, 0.5, 0.25, 1e-9, -0.1, float("nan"), 3]),
                    min_size=1, max_size=15))
    def test_from_function_checks_values_as_the_constructor(self, table):
        # fn reads the primes up to 47 off the table in order, 0.0 past its end
        ps = primes.primes_upto(47).tolist()
        fn = dict(zip(ps, table)).get

        def outcome(make):
            try:
                return make().prime_values
            except (SpecificationError, ValueError) as e:
                return type(e), str(e)

        got = outcome(lambda: AdditiveFunctionSpec.from_function(lambda p: fn(p, 0.0), 47, 0.0))
        assert got == outcome(lambda: AdditiveFunctionSpec({p: fn(p, 0.0) for p in ps}, 0.0))

    def test_congruence_bound_exact_tail(self):
        # classes mod N! keep values within twice the exact tail beyond N
        spec = AdditiveFunctionSpec.from_function(lambda p: 4.0**-p, 10_000)
        w = gen_additive(10_000, spec)
        for N, mod in ((3, 6), (4, 24)):
            tail = 2 * spec.tail_above(N)
            idx = np.arange(1, 10_001)
            for r in range(mod):
                vals = w.values[idx % mod == r]
                assert vals.max() - vals.min() <= tail

    def test_negative_value_rejected(self):
        with pytest.raises(SpecificationError):
            AdditiveFunctionSpec({2: -0.1}, 0.0)

    def test_duplicate_nonzero_values_rejected(self):
        with pytest.raises(SpecificationError):
            AdditiveFunctionSpec({2: 0.5, 3: 0.5}, 0.0)

    @given(
        st.lists(
            st.tuples(
                st.one_of(st.integers(-5, 400), st.integers(4000, 4200)),
                st.sampled_from([0.0, 0.5, 0.25, 1e-9, -0.1, -0.0]),
            ),
            max_size=25,
        ),
        st.sampled_from([4096, 100, 0]),
    )
    @settings(max_examples=300)
    def test_sieve_check_equals_per_key_trial_division(self, items, limit):
        # `limit` moves the sieve's reach, so keys on both sides of it are checked
        want = oracles.additive_spec_oracle(items)
        with mock.patch.object(seqgen, "_SPEC_SIEVE_LIMIT", limit):
            got = spec_outcome(items)
        assert got == want

    @pytest.mark.parametrize("top", [2**24 - 3, 2**24 + 1, 2**24 + 43])
    def test_keys_around_the_sieve_limit(self, top):
        items = {3: 0.5, 1009: 0.25, top: 0.125}
        got = spec_outcome(items)
        assert got == oracles.additive_spec_oracle(items.items())

    @pytest.mark.parametrize("key, message", [(1_000_000_000_039, None),
                                              (1_000_000_000_001, "1000000000001 is not prime")])
    def test_large_key_is_trial_divided_without_a_sieve(self, key, message):
        with mock.patch.object(seqgen, "prime_mask", wraps=seqgen.prime_mask) as sieve:
            items = {2: 0.5, key: 0.25}
            got = spec_outcome(items)
        assert got == (message or ((2, 0.5), (key, 0.25)))
        assert [c.args for c in sieve.call_args_list] == [(2,)]


class TestSimple:
    def spec(self):
        return SimpleSpec(
            [(APSet.single(0, 2), 1.0), (APSet.single(1, 2), 2.0)]
        )

    def test_values(self):
        w = gen_simple(10, self.spec())
        assert w.value(4) == 1.0
        assert w.value(7) == 2.0

    def test_window_mean_matches_density_combination(self):
        w = gen_simple(1000, self.spec())
        assert w.values.mean() == pytest.approx(1.5, abs=1e-12)

    def test_empty_parts_vanish(self):
        w = gen_simple(10, SimpleSpec([]))
        assert not w.values.any()

    def test_overlap_rejected(self):
        with pytest.raises(SpecificationError):
            SimpleSpec([(APSet.single(0, 2), 1.0), (APSet.single(2, 4), 2.0)])

    @given(st.integers(200, 2000))
    @settings(max_examples=20)
    def test_mean_within_inverse_window(self, N):
        spec = SimpleSpec(
            [(APSet.single(1, 3), 0.5), (APSet.single(2, 6), -1.0)]
        )
        w = gen_simple(N, spec)
        exact = 0.5 * Fraction(1, 3) + (-1.0) * Fraction(1, 6)
        slack = (0.5 + 1.0) / N  # one progression per part, off-by-one counts
        assert abs(w.values.mean() - float(exact)) <= slack


class TestWindowOps:
    def test_subsequence_identity(self):
        w = VdcSequence(BaseChain.geometric(2, 1)).window(64)
        same = subsequence(w, np.arange(1, 65))
        assert np.array_equal(same.values, w.values)

    def test_subsequence_pair_swap(self):
        w = VdcSequence(BaseChain.geometric(2, 1)).window(64)
        k = np.arange(1, 65)
        k[0::2], k[1::2] = k[1::2].copy(), k[0::2].copy()
        swapped = subsequence(w, k)
        assert np.array_equal(swapped.values[::2], w.values[1::2])
        assert np.array_equal(swapped.values[1::2], w.values[::2])

    def test_subsequence_even_indices_of_even_indicator(self):
        spec = SimpleSpec([(APSet.single(0, 2), 1.0)])
        w = gen_simple(200, spec)
        sub = subsequence(w, 2 * np.arange(1, 101))
        assert (sub.values == 1.0).all()

    def test_subsequence_out_of_range(self):
        w = gen_simple(10, SimpleSpec([]))
        with pytest.raises(WindowRangeError):
            subsequence(w, [1, 11])

    def test_apply_identity(self):
        w = VdcSequence(BaseChain.geometric(2, 1)).window(32)
        out = apply_pointwise(lambda x: x, w)
        assert np.array_equal(out.values, w.values)

    def test_apply_square_constant(self):
        w = SequenceWindow([0.5] * 4)
        assert (apply_pointwise(lambda x: x * x, w).values == 0.25).all()

    def test_apply_square_mean_near_third(self):
        # quadrature oracle: the limit mean of x^2 under the uniform law is 1/3
        w = VdcSequence(BaseChain.geometric(2, 1)).window(100_000)
        out = apply_pointwise(lambda x: x * x, w)
        assert out.values.mean() == pytest.approx(1 / 3, abs=1e-2)

    def test_apply_domain_error(self):
        w = SequenceWindow([-1.0, 1.0])
        with pytest.raises(DomainError):
            apply_pointwise(np.log, w)

    def test_window_validates_bounds(self):
        with pytest.raises(ValueError):
            SequenceWindow([0.5, 2.0], bounds=(0.0, 1.0))

    def test_values_are_read_only(self):
        w = SequenceWindow([1.0, 2.0])
        with pytest.raises(ValueError):
            w.values[0] = 5.0
