"""Genetic algorithm: budget, selection, population, operators, NS, engine."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import GAConfig, NeighborhoodConfig
from repro.dsl import FunctionRegistry, Interpreter, Program, REGISTRY, has_dead_code, make_io_set
from repro.execution import BatchExecutionEngine, ExecutionEngine
from repro.fitness import EditDistanceFitness, OracleFitness
from repro.ga import (
    BudgetExhausted,
    GeneOperators,
    GeneticAlgorithm,
    NeighborhoodSearch,
    Population,
    RouletteWheel,
    SearchBudget,
    roulette_wheel_indices,
    roulette_wheel_probabilities,
)


class TestSearchBudget:
    def test_charging_and_exhaustion(self):
        budget = SearchBudget(limit=5)
        assert budget.charge(3) == 3
        assert budget.remaining == 2
        assert not budget.exhausted
        assert budget.charge(10) == 2  # clipped
        assert budget.exhausted
        assert budget.fraction_used == 1.0

    def test_strict_mode_raises(self):
        budget = SearchBudget(limit=2)
        with pytest.raises(BudgetExhausted):
            budget.charge(3, strict=True)
        assert budget.used == 0  # nothing charged on failure

    def test_reset_and_copy(self):
        budget = SearchBudget(limit=4, used=2)
        clone = budget.copy()
        budget.reset()
        assert budget.used == 0 and clone.used == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            SearchBudget(limit=0)
        with pytest.raises(ValueError):
            SearchBudget(limit=5, used=-1)
        with pytest.raises(ValueError):
            SearchBudget(limit=5).charge(-1)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=1000), st.lists(st.integers(min_value=0, max_value=50), max_size=20))
    def test_used_never_exceeds_limit(self, limit, charges):
        budget = SearchBudget(limit=limit)
        for count in charges:
            budget.charge(count)
        assert 0 <= budget.used <= budget.limit
        assert budget.remaining == budget.limit - budget.used


class TestRouletteWheel:
    def test_probabilities_are_normalized_and_monotone(self):
        scores = np.array([0.0, 1.0, 3.0])
        probabilities = roulette_wheel_probabilities(scores)
        assert np.isclose(probabilities.sum(), 1.0)
        assert probabilities[2] > probabilities[1] > probabilities[0] > 0

    def test_equal_scores_are_uniform(self):
        probabilities = roulette_wheel_probabilities(np.array([2.0, 2.0, 2.0]))
        assert np.allclose(probabilities, 1 / 3)

    def test_negative_scores_supported(self):
        probabilities = roulette_wheel_probabilities(np.array([-5.0, -1.0]))
        assert probabilities[1] > probabilities[0]

    def test_selection_bias_towards_fit_genes(self, rng):
        scores = np.array([0.1, 0.1, 10.0])
        picks = roulette_wheel_indices(scores, 2000, rng)
        assert np.bincount(picks, minlength=3)[2] > 1200

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            roulette_wheel_probabilities(np.array([]))
        with pytest.raises(ValueError):
            roulette_wheel_probabilities(np.array([1.0]), temperature=0)
        with pytest.raises(ValueError):
            roulette_wheel_indices(np.array([1.0]), -1, rng)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=1, max_size=20))
    def test_probabilities_always_valid(self, scores):
        probabilities = roulette_wheel_probabilities(np.array(scores))
        assert np.isclose(probabilities.sum(), 1.0)
        assert np.all(probabilities > 0)

    @staticmethod
    def _score_vector(seed: int) -> np.ndarray:
        """Seeded scores cycling through the shapes the wheel must handle."""
        rng = np.random.default_rng(seed)
        n = (1, 100)[seed % 2] if seed % 6 == 5 else int(rng.integers(1, 101))
        shape = seed % 6
        if shape == 0:
            return rng.normal(size=n)
        if shape == 1:
            return rng.integers(0, 3, size=n).astype(np.float64)  # ties
        if shape == 2:
            return np.full(n, 0.25)  # all equal
        if shape == 3:
            return -rng.exponential(5.0, size=n)  # all negative
        return rng.uniform(-10.0, 10.0, size=n)

    def test_wheel_draws_what_rng_choice_draws(self):
        seen_sizes = set()
        for seed in range(300):
            scores = self._score_vector(seed)
            seen_sizes.add(scores.size)
            probabilities = roulette_wheel_probabilities(scores)
            wheel = RouletteWheel(scores)
            for k in (1, 2):
                for source in (wheel, scores):
                    ours = np.random.default_rng(seed)
                    reference = np.random.default_rng(seed)
                    drawn = roulette_wheel_indices(source, k, ours)
                    expected = reference.choice(scores.size, size=k, p=probabilities)
                    assert np.array_equal(drawn, expected), (seed, k)
                    # the generator is left in the same state
                    assert ours.random() == reference.random(), (seed, k)
        assert {1, 100} <= seen_sizes

    def test_wheel_without_replacement_matches_rng_choice(self):
        scores = np.array([0.5, 3.0, -1.0, 2.0, 2.0])
        probabilities = roulette_wheel_probabilities(scores)
        for source in (RouletteWheel(scores), scores):
            drawn = roulette_wheel_indices(source, 3, np.random.default_rng(3), replace=False)
            expected = np.random.default_rng(3).choice(5, size=3, replace=False, p=probabilities)
            assert np.array_equal(drawn, expected)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_raise_before_any_arithmetic(self, bad):
        scores = np.array([1.0, bad, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                roulette_wheel_indices(scores, 2, np.random.default_rng(0))
            with pytest.raises(ValueError):
                RouletteWheel(scores)


class TestPopulation:
    def _population(self):
        members = [Program.from_names(["SORT"]), Program.from_names(["REVERSE"]), Program.from_names(["SUM"])]
        return Population(members, scores=np.array([1.0, 3.0, 2.0]))

    def test_best_and_top(self):
        population = self._population()
        assert population.best().names == ["REVERSE"]
        assert [p.names[0] for p in population.top(2)] == ["REVERSE", "SUM"]
        assert population.max_score() == 3.0
        assert np.isclose(population.mean_score(), 2.0)

    def test_unscored_population_raises(self):
        population = Population([Program.from_names(["SORT"])])
        assert not population.is_scored
        with pytest.raises(RuntimeError):
            population.best()

    def test_set_scores_validates_length(self):
        population = Population([Program.from_names(["SORT"])])
        with pytest.raises(ValueError):
            population.set_scores([1.0, 2.0])

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError):
            Population([])

    def test_unique_fraction(self):
        members = [Program.from_names(["SORT"]), Program.from_names(["SORT"])]
        assert Population(members).unique_fraction() == 0.5


class TestGeneOperators:
    def test_random_genes_have_length_and_no_dead_code(self, rng):
        operators = GeneOperators(program_length=4, rng=rng)
        for gene in operators.random_population(15):
            assert len(gene) == 4
            assert not has_dead_code(gene)

    def test_crossover_preserves_length_and_material(self, rng):
        operators = GeneOperators(program_length=5, rng=rng)
        a, b = operators.random_gene(), operators.random_gene()
        child = operators.crossover(a, b)
        assert len(child) == 5
        parent_ids = set(a.function_ids) | set(b.function_ids)
        assert set(child.function_ids) <= parent_ids

    def test_crossover_requires_equal_lengths(self, rng):
        operators = GeneOperators(program_length=3, rng=rng)
        with pytest.raises(ValueError):
            operators.crossover(Program.from_names(["SORT"]), Program.from_names(["SORT", "REVERSE"]))

    def test_mutation_changes_exactly_one_position(self, rng):
        operators = GeneOperators(program_length=4, rng=rng, forbid_dead_code=False)
        gene = operators.random_gene()
        mutated = operators.mutate(gene)
        differences = sum(x != y for x, y in zip(gene.function_ids, mutated.function_ids))
        assert differences == 1

    def test_mutation_with_probability_map_prefers_likely_functions(self, rng):
        operators = GeneOperators(program_length=3, rng=rng, forbid_dead_code=False)
        gene = Program.from_names(["SORT", "SORT", "SORT"])
        prob_map = np.full(41, 1e-6)
        target_fid = REGISTRY.by_name("REVERSE").fid
        prob_map[target_fid - 1] = 1.0
        replacements = set()
        for _ in range(10):
            mutated = operators.mutate(gene, probability_map=prob_map)
            replacements |= set(mutated.function_ids) - {REGISTRY.by_name("SORT").fid}
        assert replacements == {target_fid}

    def test_mutation_with_position_scores(self, rng):
        operators = GeneOperators(program_length=3, rng=rng, forbid_dead_code=False)
        gene = Program.from_names(["SORT", "REVERSE", "MAP(*2)"])
        position_scores = np.array([0.0, 0.0, 100.0])
        changed_positions = set()
        for _ in range(10):
            mutated = operators.mutate(gene, position_scores=position_scores)
            for index, (x, y) in enumerate(zip(gene.function_ids, mutated.function_ids)):
                if x != y:
                    changed_positions.add(index)
        assert changed_positions == {2}

    def test_mutation_validates_inputs(self, rng):
        operators = GeneOperators(program_length=3, rng=rng)
        gene = operators.random_gene()
        with pytest.raises(ValueError):
            operators.mutate(gene, probability_map=np.ones(5))
        with pytest.raises(ValueError):
            operators.mutate(gene, position_scores=np.ones(5))
        with pytest.raises(ValueError):
            operators.mutate(Program([]))

    def test_invalid_length(self, rng):
        with pytest.raises(ValueError):
            GeneOperators(program_length=0, rng=rng)
        with pytest.raises(ValueError):
            GeneOperators(program_length=3, rng=rng).random_population(0)

    def test_registry_needs_two_functions(self, rng):
        single = FunctionRegistry([REGISTRY.by_name("SORT")])
        with pytest.raises(ValueError):
            GeneOperators(program_length=2, registry=single, rng=rng)

    @staticmethod
    def _reference_replacement(rng, current, probability_map):
        """The per-call replacement draw the table must reproduce."""
        ids = np.array(REGISTRY.ids)
        weights = np.asarray(probability_map, dtype=np.float64).copy()
        weights = np.clip(weights, 0.0, None) + 1e-6
        weights[REGISTRY.index_of(current)] = 0.0
        weights = weights / weights.sum()
        return int(ids[int(rng.choice(len(ids), p=weights))])

    def test_replacement_table_draws_what_per_call_weights_draw(self):
        draws = 0
        for seed in range(25):
            maps = np.random.default_rng(seed)
            probability_map = maps.normal(0.2, 0.5, size=41)  # negative entries
            probability_map[maps.integers(0, 41, size=8)] = 0.0
            ours = np.random.default_rng(1000 + seed)
            reference = np.random.default_rng(1000 + seed)
            operators = GeneOperators(program_length=3, rng=ours, forbid_dead_code=False)
            for _ in range(100):
                gene = Program([int(fid) for fid in maps.integers(1, 42, size=3)])
                mutated = operators.mutate(gene, probability_map=probability_map)
                position = int(reference.integers(0, 3))
                expected = self._reference_replacement(
                    reference, gene.function_ids[position], probability_map
                )
                assert mutated == gene.with_replacement(position, expected)
                draws += 1
            assert ours.random() == reference.random()
        assert draws >= 2500

    @staticmethod
    def _replacements(operators, gene, probability_map):
        found = set()
        for _ in range(10):
            mutated = operators.mutate(gene, probability_map=probability_map)
            found |= set(mutated.function_ids) - set(gene.function_ids)
        return found

    def test_replacement_table_follows_a_new_map_and_in_place_edits(self, rng):
        operators = GeneOperators(program_length=3, rng=rng, forbid_dead_code=False)
        gene = Program.from_names(["SORT", "SORT", "SORT"])

        def favouring(name):
            probability_map = np.full(41, 1e-6)
            probability_map[REGISTRY.by_name(name).fid - 1] = 1.0
            return probability_map

        reverse, total = favouring("REVERSE"), favouring("SUM")
        assert self._replacements(operators, gene, reverse) == {REGISTRY.by_name("REVERSE").fid}
        # a different map rebuilds the table
        assert self._replacements(operators, gene, total) == {REGISTRY.by_name("SUM").fid}
        # so does an in-place edit of the same array
        total[:] = favouring("MAP(*2)")
        assert self._replacements(operators, gene, total) == {REGISTRY.by_name("MAP(*2)").fid}

    @staticmethod
    def _assert_checked_equal(child, registry):
        """``child`` equals what the validating constructor builds from
        its ids: a tuple of plain ints of ``registry``."""
        rebuilt = Program(child.function_ids, registry)
        assert child == rebuilt
        assert child.registry is rebuilt.registry is registry
        assert type(child.function_ids) is tuple
        assert all(type(fid) is int for fid in child.function_ids)
        assert hash(child) == hash(rebuilt)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_operator_children_equal_checked_programs(self, seed):
        rng = np.random.default_rng(seed)
        probability_map = rng.random(41)
        operators = GeneOperators(program_length=4, rng=rng)
        genes = operators.random_population(12)
        children = list(genes)
        for i in range(30):
            a, b = genes[i % len(genes)], genes[(3 * i + 1) % len(genes)]
            children.append(operators.crossover(a, b))
            children.append(operators.mutate(a))
            children.append(operators.mutate(b, probability_map=probability_map))
        for child in children:
            self._assert_checked_equal(child, REGISTRY)

    def test_children_of_a_custom_registry_hold_its_ids(self, rng):
        custom = FunctionRegistry([REGISTRY.by_name(n) for n in ("SORT", "REVERSE", "SUM", "HEAD")])
        operators = GeneOperators(program_length=3, registry=custom, rng=rng, forbid_dead_code=False)
        genes = operators.random_population(6)
        for child in genes + [operators.crossover(genes[0], genes[1]), operators.mutate(genes[2])]:
            self._assert_checked_equal(child, custom)

    def test_crossover_of_foreign_parents_is_checked(self, rng):
        # a child holding ids its registry lacks is refused, as every Program is
        custom = FunctionRegistry([REGISTRY.by_name(n) for n in ("SORT", "REVERSE")])
        operators = GeneOperators(program_length=2, registry=custom, rng=rng, forbid_dead_code=False)
        foreign = Program.from_names(["SUM", "HEAD"])
        with pytest.raises(ValueError):
            operators.crossover(foreign, foreign)

    def test_public_constructors_still_reject_unknown_ids(self):
        with pytest.raises(ValueError):
            Program([3, 99])
        with pytest.raises(ValueError, match="id 0"):
            Program([3, 0, 99])
        gene = Program.from_names(["SORT", "REVERSE"])
        with pytest.raises(ValueError):
            gene.with_replacement(1, 99)
        with pytest.raises(ValueError):
            gene.with_replacement(0, 0)
        assert gene.with_replacement(1, np.int64(11)) == Program([gene[0], 11])
        with pytest.raises(IndexError):
            gene.with_replacement(2, 11)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_probability_map_raises(self, rng, bad):
        operators = GeneOperators(program_length=3, rng=rng)
        probability_map = np.ones(41)
        probability_map[7] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                operators.mutate(operators.random_gene(), probability_map=probability_map)


class TestNeighborhoodSearch:
    def _setup(self, strategy="bfs"):
        interpreter = Interpreter()
        target = Program.from_names(["FILTER(>0)", "MAP(*2)", "SORT"])
        io_set = make_io_set(target, [[[1, -2, 3]], [[4, -5, 6]], [[7, 8, -9]]], interpreter)
        fitness = OracleFitness(target, kind="lcs")
        config = NeighborhoodConfig(strategy=strategy, top_n=2, window=3)
        return target, io_set, NeighborhoodSearch(config=config, fitness=fitness)

    def test_bfs_finds_one_edit_neighbor(self):
        target, io_set, search = self._setup("bfs")
        near_miss = target.with_replacement(1, REGISTRY.by_name("REVERSE").fid)
        budget = SearchBudget(limit=1000)
        found = search.search([near_miss], io_set, budget)
        assert found is not None
        assert found == target or Interpreter().output_of(found, io_set[0].inputs) == io_set[0].output
        assert budget.used == search.stats.candidates_examined
        assert search.stats.successes == 1

    def test_dfs_finds_one_edit_neighbor(self):
        target, io_set, search = self._setup("dfs")
        near_miss = target.with_replacement(0, REGISTRY.by_name("SORT").fid)
        assert search.search([near_miss], io_set, SearchBudget(limit=2000)) is not None

    def test_search_respects_budget(self):
        target, io_set, search = self._setup("bfs")
        far = Program.from_names(["SUM", "TAKE", "DELETE"])
        budget = SearchBudget(limit=10)
        assert search.search([far], io_set, budget) is None
        assert budget.used == 10

    def test_should_trigger_detects_saturation(self):
        _, _, search = self._setup("bfs")
        improving = [1, 2, 3, 4, 5, 6, 7, 8]
        flat = [5, 5, 5, 5, 5, 5, 5, 5]
        assert not search.should_trigger(improving)
        assert search.should_trigger(flat)
        assert not search.should_trigger([1, 2])  # not enough history

    def test_dfs_requires_fitness(self):
        with pytest.raises(ValueError):
            NeighborhoodSearch(config=NeighborhoodConfig(strategy="dfs"), fitness=None)

    def test_neighbors_exclude_current_function(self):
        target, _, search = self._setup("bfs")
        neighbors = search._neighbors_at(target, 0)
        assert len(neighbors) == 40
        assert all(n.function_ids[0] != target.function_ids[0] for n in neighbors)


class TestGeneticAlgorithmEngine:
    def _engine(self, target, fitness=None, neighborhood=True, seed=0, config=None):
        operators = GeneOperators(program_length=len(target), rng=np.random.default_rng(seed))
        fitness = fitness or OracleFitness(target, kind="lcs")
        config = config or GAConfig(population_size=20, elite_count=2, max_generations=100)
        ns = None
        if neighborhood:
            ns = NeighborhoodSearch(
                config=NeighborhoodConfig(top_n=2, window=3, cooldown=2), fitness=fitness
            )
        return GeneticAlgorithm(
            fitness=fitness,
            operators=operators,
            config=config,
            neighborhood=ns,
            rng=np.random.default_rng(seed),
        )

    def _task(self, names=("FILTER(>0)", "MAP(*2)", "SORT")):
        interpreter = Interpreter()
        target = Program.from_names(list(names))
        io_set = make_io_set(target, [[[1, -2, 3]], [[4, -5, 6]], [[-7, 8, 9]]], interpreter)
        return target, io_set

    def test_oracle_guided_search_finds_program(self):
        target, io_set = self._task()
        result = self._engine(target).run(io_set, SearchBudget(limit=5000))
        assert result.found
        assert result.program is not None
        assert result.candidates_used <= 5000
        assert Interpreter().output_of(result.program, io_set[0].inputs) == io_set[0].output

    def test_budget_exhaustion_reported(self):
        target, io_set = self._task()
        # edit fitness with a tiny budget: almost surely not found
        result = self._engine(target, fitness=EditDistanceFitness(), neighborhood=False).run(
            io_set, SearchBudget(limit=30)
        )
        assert result.candidates_used == 30
        if not result.found:
            assert result.program is None
            assert result.found_by == "none"

    def test_histories_recorded(self):
        target, io_set = self._task()
        result = self._engine(target).run(io_set, SearchBudget(limit=3000))
        assert len(result.average_fitness_history) == len(result.best_fitness_history)
        if result.generations > 1 and not result.found_by == "init":
            assert len(result.average_fitness_history) >= 1

    def test_generation_limit_respected(self):
        target, io_set = self._task()
        config = GAConfig(population_size=10, elite_count=1, max_generations=3)
        result = self._engine(target, fitness=EditDistanceFitness(), neighborhood=False, config=config).run(
            io_set, SearchBudget(limit=100000)
        )
        assert result.generations <= 3

    def test_deterministic_given_seed(self):
        target, io_set = self._task()
        first = self._engine(target, seed=5).run(io_set, SearchBudget(limit=2000))
        second = self._engine(target, seed=5).run(io_set, SearchBudget(limit=2000))
        assert first.found == second.found
        assert first.candidates_used == second.candidates_used
        assert first.generations == second.generations


def _counting(engine_class):
    """An ``engine_class`` that counts the programs its solution check sees."""

    class Counting(engine_class):
        checked = 0

        def satisfies_batch(self, programs, io_set, io_key=None):
            self.checked += len(programs)
            return super().satisfies_batch(programs, io_set, io_key=io_key)

    return Counting()


@pytest.mark.parametrize("engine_class", [ExecutionEngine, BatchExecutionEngine])
class TestEverySolutionCheckIsCharged:
    """On a run that finds nothing, every program handed to the solution
    check (duplicates included) is charged against the budget."""

    def _task(self):
        target = Program.from_names(["FILTER(>0)", "MAP(*2)", "SORT"])
        return make_io_set(target, [[[1, -2, 3]], [[4, -5, 6]], [[-7, 8, 9]]], Interpreter())

    def _run(self, engine, limit, neighborhood=None, seed=1):
        fitness = EditDistanceFitness(executor=engine)
        ns = None
        if neighborhood is not None:
            ns = NeighborhoodSearch(config=neighborhood, fitness=fitness, executor=engine)
        ga = GeneticAlgorithm(
            fitness=fitness,
            operators=GeneOperators(program_length=3, rng=np.random.default_rng(seed)),
            config=GAConfig(population_size=20, elite_count=2, max_generations=100),
            neighborhood=ns,
            rng=np.random.default_rng(seed),
            executor=engine,
        )
        return ga.run(self._task(), SearchBudget(limit=limit))

    def test_budget_runs_out_in_the_initial_population(self, engine_class):
        engine = _counting(engine_class)
        result = self._run(engine, limit=13)
        assert not result.found and result.generations == 0
        assert engine.checked == result.candidates_used == 13

    def test_budget_runs_out_mid_brood(self, engine_class):
        engine = _counting(engine_class)
        # 20 initial genes, then 7 of the first brood's newcomers
        result = self._run(engine, limit=27)
        assert not result.found and result.generations == 1
        assert engine.checked == result.candidates_used == 27

    def test_budget_runs_out_in_a_neighborhood_sweep(self, engine_class):
        engine = _counting(engine_class)
        config = NeighborhoodConfig(strategy="bfs", top_n=2, window=1, cooldown=100)
        # the search starts at 271 candidates: one full 120-neighbor sweep,
        # then the budget runs out 9 neighbors into the second gene's
        result = self._run(engine, limit=400, neighborhood=config, seed=0)
        assert not result.found and result.neighborhood_invocations == 1
        assert engine.checked == result.candidates_used == 400
