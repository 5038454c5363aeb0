from hypothesis import settings

settings.register_profile("exact", deadline=None, max_examples=60, derandomize=True)
settings.register_profile("deep", settings.get_profile("exact"), max_examples=500)
settings.load_profile("exact")
