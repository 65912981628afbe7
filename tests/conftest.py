import pytest

from autcrit.catalog import build_group, catalog, eval_recipe

# the two larger groups of the benchmark's stress workload, outside the catalog
STRESS_RECIPES = {
    "Q8xC4xC2": "product(quaternion 8, abelian 2 2 1)",
    "He3xC3": "product(heisenberg 3, cyclic 3)",
}


@pytest.fixture(scope="session")
def corpus():
    """name -> (spec, built group) for the whole catalog."""
    return {spec.name: (spec, build_group(spec)) for spec in catalog()}


@pytest.fixture(scope="session")
def nonabelian_corpus(corpus):
    return {
        name: g for name, (spec, g) in corpus.items() if not g.is_abelian()
    }


@pytest.fixture(scope="session")
def corpus_under_64(corpus):
    return {name: g for name, (spec, g) in corpus.items() if g.n <= 64}


@pytest.fixture(scope="session")
def stress_groups():
    """name -> built group for the two stress recipes."""
    return {name: eval_recipe(recipe) for name, recipe in STRESS_RECIPES.items()}
