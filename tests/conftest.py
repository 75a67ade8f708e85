from hypothesis import settings

# every run draws the same examples, so the suite stays deterministic
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
