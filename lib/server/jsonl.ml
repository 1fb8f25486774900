include Mdqa_obs.Json
